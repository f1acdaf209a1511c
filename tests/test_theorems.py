import dataclasses
import hashlib
import json

import pytest

from weakiasi import (
    MonoPattern,
    FormulaDomainError,
    FormulaIntegralityError,
    THEOREM_IDS,
    UnknownTheoremError,
    check_theorem,
    complete_graph,
    default_corona_instances,
    formula_eval,
    pattern_mono_edges,
)
from weakiasi import theorems
from weakiasi.theorems import TheoremRow, ec_rs_variant


# ---------------------------------------------------------------------------
# formula_eval
# ---------------------------------------------------------------------------

def test_ec_pp_small_even():
    assert formula_eval("EC_PP", m=2, n=2) == 3


def test_ec_pp_parity_split():
    assert formula_eval("EC_PP", m=4, n=4) == 11  # even branch
    assert formula_eval("EC_PP", m=4, n=5) == 11  # odd branch
    assert formula_eval("EC_PP", m=3, n=2) == 5


def test_ec_pc_branches():
    assert formula_eval("EC_PC", m=2, n=4) == 5
    assert formula_eval("EC_PC", m=2, n=3) == 6


def test_ec_cp_branches():
    assert formula_eval("EC_CP", m=3, n=2) == 6
    assert formula_eval("EC_CP", m=3, n=3) == 6


def test_ec_cc_branches():
    assert formula_eval("EC_CC", m=3, n=4) == 9
    assert formula_eval("EC_CC", m=3, n=3) == 12


def test_regular_pair_formulas():
    assert formula_eval("EC_RR", m=3, r=2, n_prime=2, phi2=1) == 18
    assert formula_eval("EC_RS", m=3, r=2, n_prime=3, phi2=3) == 33
    assert ec_rs_variant(3, 2, 3, 3) == 24


def test_complete_family():
    assert formula_eval("EC_PK", m=3, n=2) == 6
    assert formula_eval("EC_CK", m=3, n=1) == 3
    assert formula_eval("EC_RK", r=3, m=4, n=4) == 60
    assert formula_eval("COMPLETE", n=4) == 3
    assert formula_eval("COMPLETE", n=1) == 0


def test_union_formula():
    assert formula_eval("UNION", phi1=3, phi2=3, phi_intersection=0) == 6


def test_mono_count_example():
    assert (
        formula_eval(
            "MONO_COUNT", m1=1, m1_mono=1, n2=2, m2=1, n2_mono=1, m2_mono=0
        )
        == 3
    )


def test_domain_violations():
    with pytest.raises(FormulaDomainError):
        formula_eval("EC_PP", m=1, n=3)
    with pytest.raises(FormulaDomainError):
        formula_eval("EC_CC", m=2, n=3)
    with pytest.raises(FormulaDomainError):
        formula_eval("EC_RK", r=3, m=4, n=2)  # needs r <= n - 1
    with pytest.raises(FormulaDomainError):
        formula_eval("COMPLETE", n=0)
    with pytest.raises(FormulaDomainError):
        formula_eval("MONO_COUNT", m1=1, m1_mono=2, n2=2, m2=1, n2_mono=0, m2_mono=0)


def test_non_integer_result_is_an_error():
    # a 1-regular graph on 3 vertices cannot exist; the closed form sees the
    # bad parameters as a non-integer value, never a rounding
    with pytest.raises(FormulaIntegralityError):
        formula_eval("EC_RK", r=1, m=3, n=2)


def test_wrong_parameters_rejected():
    with pytest.raises(FormulaDomainError, match="takes parameters"):
        formula_eval("EC_PP", m=2)
    with pytest.raises(FormulaDomainError, match="takes parameters"):
        formula_eval("COMPLETE", n=3, m=2)


def test_unknown_theorem_lists_valid_ids():
    with pytest.raises(UnknownTheoremError, match="EC_PP"):
        formula_eval("NOPE", n=1)


# ---------------------------------------------------------------------------
# check_theorem
# ---------------------------------------------------------------------------

def test_complete_audit_all_agree():
    report = check_theorem("COMPLETE")
    assert len(report.rows) == 8
    assert report.agree_count == 8
    assert report.all_resolved
    for row in report.rows:
        assert row.bruteforce_value == row.oracle_value


def test_ec_pp_known_rows():
    report = check_theorem("EC_PP", m_values=[2, 3], n_values=[2])
    by_params = {(row.params["m"], row.params["n"]): row for row in report.rows}
    assert by_params[(2, 2)].agree
    assert by_params[(2, 2)].oracle_value == 3
    # the (3, 2) closed form undercounts: exhaustive optimum is 6
    assert by_params[(3, 2)].formula_value == 5
    assert by_params[(3, 2)].oracle_value == 6
    assert not by_params[(3, 2)].agree


def test_union_rows_agree():
    report = check_theorem("UNION")
    assert report.all_resolved
    assert report.disagree_count == 0
    one_point = [r for r in report.rows if r.params["overlap"] == "one_point"]
    assert any(
        r.params["a"] == 4 and r.params["b"] == 4 and r.oracle_value == 6
        for r in one_point
    )


def test_mono_count_rows_agree_and_cross_check():
    report = check_theorem("MONO_COUNT")
    assert report.all_resolved
    assert report.disagree_count == 0
    for row in report.rows:
        assert row.bruteforce_value == row.oracle_value


def test_ec_rs_records_variant():
    report = check_theorem("EC_RS")
    assert report.rows
    assert all(row.variant_value is not None for row in report.rows)
    assert any("variant" in note for note in report.notes)


def test_range_overrides():
    report = check_theorem("COMPLETE", n_values=[1, 2, 3])
    assert [row.params["n"] for row in report.rows] == [1, 2, 3]
    assert check_theorem("EC_PP", m_values=[]).rows == []
    with pytest.raises(ValueError, match="EC_RR takes no m range"):
        check_theorem("EC_RR", m_values=[2])
    with pytest.raises(ValueError, match="COMPLETE takes no m range"):
        check_theorem("COMPLETE", m_values=[2])


def test_unknown_id():
    with pytest.raises(UnknownTheoremError):
        check_theorem("NOPE")


def test_timeout_rows_marked_unresolved():
    report = check_theorem("COMPLETE", n_values=[4, 5], timeout_secs=0.0)
    assert report.unresolved_count == 2
    assert not report.all_resolved
    for row in report.rows:
        assert row.oracle_value is None
        assert not row.agree


@pytest.mark.parametrize(
    "tamper",
    [
        # K3 has three optima; {1} is one of them, but not the lex-min {0}
        lambda result: dataclasses.replace(result, witness=MonoPattern({1})),
        lambda result: dataclasses.replace(result, value=result.value + 1),
    ],
    ids=["other_optimal_witness", "wrong_value"],
)
def test_cross_check_catches_a_wrong_exact_result(monkeypatch, tamper):
    assert pattern_mono_edges(complete_graph(3), MonoPattern({1})) == 1
    real = theorems.sparing_exact
    monkeypatch.setattr(theorems, "sparing_exact", lambda g, t: tamper(real(g, t)))
    with pytest.raises(RuntimeError, match="solver defect"):
        check_theorem("COMPLETE", n_values=[3])


def test_row_verdicts_follow_the_oracle_value():
    unresolved = TheoremRow({"n": 3}, 1)
    assert unresolved.unresolved and not unresolved.agree
    assert TheoremRow({"n": 3}, 1, oracle_value=1).agree
    differ = TheoremRow({"n": 3}, 1, oracle_value=2)
    assert not differ.agree and not differ.unresolved


def test_report_serialization():
    report = check_theorem("COMPLETE", n_values=[3, 4])
    data = report.to_json_dict()
    assert data["theorem_id"] == "COMPLETE"
    assert data["summary"] == {"rows": 2, "agree": 2, "disagree": 0, "unresolved": 0}
    text = report.render_text()
    assert "AGREE" in text
    assert "summary: 2 rows" in text


def test_render_marks_differing_rows():
    report = check_theorem("EC_CP", m_values=[3], n_values=[2])
    text = report.render_text()
    assert "DIFFER" in text


def test_registry_covers_every_id():
    for tid in THEOREM_IDS:
        assert tid in (
            "EC_PP", "EC_PC", "EC_CP", "EC_CC", "EC_RR", "EC_RS",
            "EC_PK", "EC_CK", "EC_RK", "COMPLETE", "UNION", "MONO_COUNT",
        )


def test_default_corona_instances_fit_caps():
    instances = list(default_corona_instances())
    assert len(instances) >= 70
    for _tid, _params, graph in instances:
        assert graph.vertex_count <= 34


# SHA-256 of json.dumps(report.to_json_dict(), sort_keys=True) and of
# report.render_text(), recorded before the audit became table-driven.
AUDIT_DIGESTS = {
    ("EC_PP", 34): ("5419022c7f5eb9f94ad87e8e86f2655554a82647c48e075c36f160eefc57d644", "11da4ff26faa84aa44a167f27d9cbd53e3c5d1adb8253af6b7e9ebd15cb329d0"),
    ("EC_PC", 34): ("69be508e862d87498c5f02d29abe2bc8511eb66d0357782f1bfe760415a70562", "c6816f61d422f8cc2456d47d8b8031783a1fa4f383c5744d5336cbe68b5f87d6"),
    ("EC_CP", 34): ("d4666d2d7f0d491412c1106f4f1bb496f9b78f832ab1813b8847ea987b62964a", "df251783cceeec1292a32b1c843db011b12d81a46828acbbe45db97aab480ece"),
    ("EC_CC", 34): ("eed598a8aa4998bd4867448e0749aee2d1df8cfa5110371adfe3955e0115062b", "11c11b9ceba4bd1a8a2f05543e533e1c509647f8cf9e0bc5fbced02fa7303b56"),
    ("EC_RR", 34): ("696bb37846f76ee75865045b7efb6c67d3096dc050842aebe3a81400a98415c6", "a3ca8f782a56f625bbb326b341748701cab881b1c60efbdda0326fe2b01075b9"),
    ("EC_RS", 34): ("bc2ec47ae8a3281fff8aea79452d394e2e86c0dea987378f4cb76e04facc2cc9", "066e877e3f4cf6f4cb14cec93c80106b4820a7e77004f00d26d6c265c12644fe"),
    ("EC_PK", 34): ("0e9bf7214e110f8094d69900b8456e1ea1e189432b3121756b022e0d53aa1e09", "aa0d129b5cf0e7fef8a3c352dbe0c311e1c8c40eb19390f83968633472727dff"),
    ("EC_CK", 34): ("bb768a5c36825ae913d6cefc37ca6b1fe4a3b80275f1dd9d832c82e06d63685b", "50ea77f2597a1b66794f3c9af7d58d12cbba8c8e6244790b2cb76d6e91213d90"),
    ("EC_RK", 34): ("6145c4731bccbde32c8c605dfd50c3c121f7da5442b5f7ea013a4f4465ab89d2", "94886fc3b7b13c05eb38d4710da685d68e0dffb87caddb3a35f9525c77986862"),
    ("COMPLETE", 34): ("50dbf86223ffbe3f260b7e282b229254d016416bdbaee316f7b45ab420d2416a", "7a118e8cf374c6505cd5c80e0c149e078b9f2bf7d573d10cba5f5c76ad8ca035"),
    ("UNION", 34): ("3b16d1d3221c24552ba774b7defb59c2de72d15a3e6f0eb3502aeb1798aed92f", "99eaf0e675d6fce9d1e3d4ee4a7f9fd1e8b868b514b02a6cdbc38d422e7760a8"),
    ("MONO_COUNT", 34): ("cbacb761ecdd5a7d4ad61995b3ef82fb6af0976aafdc40a47ccacfbdd3bae12b", "7884f8a5f4a7305028179a9b8677d55d9f95657ddf56747aa613cb565e069740"),
    ("EC_RR", 66): ("f42fb58a876419189f8b46470a53b4372cfb753ebb100a97f2981c37a893955d", "db77d9dc5db277129e409658895754e51f096596366833fe7a80d9826262047c"),
    ("EC_RS", 66): ("0c9deb2b9f64b9d5a69ccc1beda94821be06ba1b7573e7283434f94720f16c0d", "71039d1f6ce8bb22387f9becf03090a70813dcaddc6583022539fb8f2160e258"),
    ("EC_RK", 66): ("1f6b0977c6b90d5e7795ff1348002296e65f9987d12c5feceff0d4d1c4d011f2", "ff6b7635187df621766e00b63e6afec83fbc66a0b83e35b0ce29b3ce4375c0bb"),
}


# The same digests for check_theorem(id, timeout_secs=0), where every
# non-bipartite instance, factor or part times out and its row is unresolved.
TIMEOUT_DIGESTS = {
    "EC_PP": ("a260fbb643e6f514de9b0249006f00969b131d28d410a139001945818ed9e455", "41b705987f5096b5eb397f301de7ccf0adcb5d5ceede001ef7eed76ae81ce23a"),
    "EC_PC": ("8996e1083f17f47adacaa9481ad14a5466ac6d0854c2c95d3780cd7759d1e319", "bb05e9a31ad361590b760bbb79b4b2116e921d601e92cc1fbe3a2c6a24a48d5d"),
    "EC_CP": ("a0129d56eb3974c89e5ee7670c9cd1f15d397b99f3450075232ce635681d4f56", "366cfe7b4dbd7f3fb980cba39f11a32802facc1cf48e72709ea8ef8be2eb3521"),
    "EC_CC": ("eda30d69ea8a71c6e1456eeb56fd7b4ef26848406fa9181903bdd25547d95d05", "4daf4c3bbed8dc859e7bfce72d922f308398597916c865447dccc36cd127c0f5"),
    "EC_RR": ("19c741d343d97596ec9d2d9c594405af97c8faaf2fe1f7b933996628c8b1c8ae", "6da2f806214a493b1a12d86f1e28ea572555e87fe35bb1816f604cea725236c6"),
    "EC_RS": ("c28ed6e2a377c5e2ecf878010e88d0654e8438d4edc7a02876f4ab3db53802c4", "c1a3af1dde753497ffd57260e110da2bfe6e4b4ea2bec21666696d73ce696254"),
    "EC_PK": ("52af66f9dfea993ce903caa509746dcf6788e3c2cc408da48d0ca911d1301e20", "86e46a38ece5f387e6313d3697687bce89f9f82a01f0313490175b553a602c27"),
    "EC_CK": ("ef80b1f4c55ede984c7616a098fe8b238c659836b7b888818d1968e493c079f0", "608872a0f32a53d3f8984c5e38c1ded7080f49e6c2df920c17a77a19f2d3daa0"),
    "EC_RK": ("80adc98439fad13e243b317bc186eeeaf5980ee4bc74dcd09f96d1812509f208", "ac36bb2b1fbf4947d8d99c5de846dee065fe01cd8aa665f70cb6bc28c9387aff"),
    "COMPLETE": ("560b9e49599255acfd044c41ce6450b0a5fa1d192d9d76df9219d1cd2809bd44", "9f4641770cf296357a0dd3edc648f9ef61c633bdb686677b43d22d83b0db6182"),
    "UNION": ("1f738d8717147fc5194dd8035efca725e20b591ed355f7d2ae9e75f993518bc4", "2e409fd3060d540003956a3fbe970811c701746a3ae1ddd7ef58cfdeac9201e2"),
    "MONO_COUNT": ("cbacb761ecdd5a7d4ad61995b3ef82fb6af0976aafdc40a47ccacfbdd3bae12b", "7884f8a5f4a7305028179a9b8677d55d9f95657ddf56747aa613cb565e069740"),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_audit_digests_cover_every_id():
    assert {tid for tid, _cap in AUDIT_DIGESTS} == set(THEOREM_IDS)


@pytest.mark.parametrize(("theorem_id", "max_vertices"), list(AUDIT_DIGESTS))
def test_audit_output_is_pinned(theorem_id, max_vertices):
    report = check_theorem(theorem_id, max_vertices=max_vertices)
    json_text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert (_sha256(json_text), _sha256(report.render_text())) == AUDIT_DIGESTS[
        (theorem_id, max_vertices)
    ]


def test_timeout_digests_cover_every_id():
    assert set(TIMEOUT_DIGESTS) == set(THEOREM_IDS)


@pytest.mark.parametrize("theorem_id", list(TIMEOUT_DIGESTS))
def test_all_timeout_audit_output_is_pinned(theorem_id):
    report = check_theorem(theorem_id, timeout_secs=0)
    json_text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert (_sha256(json_text), _sha256(report.render_text())) == TIMEOUT_DIGESTS[
        theorem_id
    ]


def test_default_instance_params_match_audit_rows():
    by_id = {}
    for tid, params, _graph in default_corona_instances():
        by_id.setdefault(tid, []).append(params)
    for tid, instance_params in by_id.items():
        rows = check_theorem(tid).rows
        assert len(rows) == len(instance_params)
        for params, row in zip(instance_params, rows):
            if tid in ("EC_RR", "EC_RS"):
                # the row adds the solver-derived m, n_prime and phi2
                assert params.items() <= row.params.items()
            else:
                assert params == row.params
