import json
import math
import random

import pytest

from cp2genus import classdata, iso, lattice, modring
from cp2genus.abelian import AbGroup, CyclicAction, apply_action, divisor_weights, orbit_count
from cp2genus.errors import ConfigError, Cp2Error, NeedsConfig, UnsupportedPrime

from conftest import (C43_CONFIG, MALFORMED_CONFIGS, classdata_both_nontrivial, exp_l3_extra,
                      synthetic_c43, synthetic_cyclic, trivial_config)
from oracles import every_m_stable


@pytest.mark.parametrize("p", [2, 3, 5])
def test_builtin_trivial(p):
    data = classdata.builtin(p)
    assert data.p == p
    assert data.H_p.target.order == 1
    assert data.H_p2.target.order == 1
    assert data.H_p.acting_order == p - 1
    assert data.H_p2.acting_order == p * (p - 1)
    assert data == classdata.trivial(p)
    data.validate()


def test_acting_order_is_phi_of_the_modulus(c43_config_file):
    # the order of (Z/m)^* is never configured: phi(m), counted here
    slots = [classdata.builtin(p) for p in (2, 3, 5)] + [classdata.trivial(p) for p in (7, 11)]
    slots += [synthetic_c43(), synthetic_cyclic(5, 11, 2), synthetic_cyclic(5, 41, 36),
              classdata_both_nontrivial(), exp_l3_extra(), classdata.load_config(c43_config_file)]
    for data in slots:
        for action, m in ((data.H_p, data.p), (data.H_p2, data.p**2)):
            assert action.modulus == m
            assert action.acting_order == sum(math.gcd(k, m) == 1 for k in range(1, m))


def test_isomorphic_across_builtin_and_trivial_data():
    # built-in and trivial data are one context, so descriptors over
    # either compare, and every cache keyed by the context shares entries
    for text in ("Z", "c(0) + B(0,0;1)", "B(0,0;1,1+l^3)"):
        D1 = lattice.parse(text, 5, classdata.builtin(5))
        D2 = lattice.parse(text, 5, classdata.trivial(5))
        assert D1 == D2 and iso.isomorphic(D1, D2)
    assert not iso.isomorphic(lattice.parse("B(0,0;1)", 5, classdata.builtin(5)),
                              lattice.parse("B(0,0;1,1+l^3)", 5, classdata.trivial(5)))


def test_validate_checks_hand_built_data():
    # the one check of load_config, trivial and hand-built data alike
    bad = classdata.ClassData(7, CyclicAction(AbGroup(()), 7, 3, ()),
                              CyclicAction(AbGroup((43,)), 49, 3, ((0,),)))
    with pytest.raises(ConfigError, match=r"^H_p2: matrix\^acting_order is not the identity"):
        bad.validate()


def test_builtin_unsupported_and_needs_config():
    with pytest.raises(UnsupportedPrime):
        classdata.builtin(11)
    with pytest.raises(NeedsConfig):
        classdata.builtin(7)


def test_load_minimal_config(tmp_path):
    cfg = {
        "p": 3,
        "H_p": {"invariant_factors": [], "generator_residue": 2, "generator_matrix": []},
        "H_p2": {"invariant_factors": [], "generator_residue": 2, "generator_matrix": []},
        "provenance": "trivial",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    data = classdata.load_config(path)
    assert data.p == 3 and data.H_p2.target.order == 1


def test_load_c43_config(c43_config_file):
    data = classdata.load_config(c43_config_file)
    assert data.H_p2.target.factors == (43,)
    assert orbit_count(data.H_p2) == 2  # multiplication by a primitive root


def test_config_errors(tmp_path):
    def write(obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        return path

    singular = json.loads(json.dumps(C43_CONFIG))
    singular["H_p2"]["generator_matrix"] = [[0]]
    with pytest.raises(ConfigError, match="H_p2"):
        classdata.load_config(write(singular))

    not_generator = json.loads(json.dumps(C43_CONFIG))
    not_generator["H_p2"]["generator_residue"] = 2  # order 21 mod 49, not 42
    message = r"^H_p2\.generator_residue: order 21 mod 49, expected 42$"
    with pytest.raises(ConfigError, match=message):
        classdata.load_config(write(not_generator))

    bad_p = {"p": 8, "H_p": {}, "H_p2": {}}
    with pytest.raises(ConfigError, match="not prime"):
        classdata.load_config(write(bad_p))

    # 211 is the least prime above the bound; 199, below it, loads
    with pytest.raises(ConfigError, match=r"^p: 211 exceeds the supported bound 200$"):
        classdata.load_config(write(trivial_config(211)))
    assert classdata.load_config(write(trivial_config(199))).p == 199

    path = tmp_path / "notjson.json"
    path.write_text("{")
    with pytest.raises(ConfigError, match="JSON"):
        classdata.load_config(path)

    with pytest.raises(ConfigError):
        classdata.load_config(tmp_path / "missing.json")


def test_validate_requires_generating_residue():
    # 2 has order 21 mod 49, so its powers miss half of (Z/49)^*
    data = classdata.ClassData(7, CyclicAction(AbGroup(()), 7, 3, ()),
                               CyclicAction(AbGroup(()), 49, 2, ()))
    message = r"^H_p2\.generator_residue: order 21 mod 49, expected 42$"
    with pytest.raises(Cp2Error, match=message):
        data.validate()


def test_largest_supported_prime(tmp_path):
    # H_p2 = C_2^3 under the 3-cycle permutation matrix M at p = 199: <M>
    # has order 3, and I, M, M^2 fix 8, 2 and 2 points, so 12/3 = 4 orbits
    cfg = trivial_config(199)
    cfg["H_p2"].update(invariant_factors=[2, 2, 2],
                       generator_matrix=[[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    path = tmp_path / "p199.json"
    path.write_text(json.dumps(cfg))
    data = classdata.load_config(path)
    H = data.H_p2
    assert H.fixed_counts == {e: 8 if e % 3 == 0 else 2 for e, _ in divisor_weights(199 * 198)}
    assert orbit_count(H) == 4
    g = H.generator_residue
    assert apply_action(H, g, (1, 0, 0)) == (0, 1, 0)
    assert apply_action(H, pow(g, 3, 199**2), (1, 1, 0)) == (1, 1, 0)


def test_extra_es_generators_shrink_U5(ctx5):
    # with default generators U_5 at p=5 has order 5; declaring one of the
    # nontrivial coset representatives as an extra image generator
    # collapses the quotient
    base = ctx5.unit_quotient(5)
    assert base.order == 5
    extra = classdata.ClassData(
        p=5,
        H_p=ctx5.H_p,
        H_p2=ctx5.H_p2,
        extra_ES_unit_gens=((1, 0, 0, 1, 0),),
    )
    assert extra.unit_quotient(5).order == 1
    # R-side quotients are untouched
    assert extra.unit_quotient(4).order == ctx5.unit_quotient(4).order


def test_extra_r_generators(ctx5):
    q4 = ctx5.unit_quotient(4)
    assert q4.order == 5
    rep = next(r for r in q4.reps if r != modring.one(5, 4))
    extra = classdata.ClassData(
        p=5,
        H_p=ctx5.H_p,
        H_p2=ctx5.H_p2,
        extra_R_unit_gens=(tuple(rep.coeffs),),
    )
    assert extra.unit_quotient(4).order == 1


@pytest.mark.parametrize("p, key, vec, m, order", [
    (5, "extra_ES_unit_gens", [1, 0, 0, 1, 0], 5, 1),  # collapses U_5
    (5, "extra_R_unit_gens", [1, 0, 0, 1], 4, 1),      # collapses U_4
    (7, "extra_R_unit_gens", [1, 0, 0, 1, 2, 0], 6, 7),  # exp(L^3) kills degree 3
])
def test_stable_extra_generators_load(tmp_path, p, key, vec, m, order):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(trivial_config(p, **{key: [vec]})))
    data = classdata.load_config(path)
    assert data.unit_quotient(m).order == order


def test_unstable_extra_generators_rejected(tmp_path):
    # exp(L^3 + L^5), L = log(1+l), at p = 7: sigma_k scales L^j by k^j, so
    # the image it generates with the default units is not Galois-stable
    # in F_7[l]/(l^6), and G(p^2) would not act on U_6
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(trivial_config(7, extra_R_unit_gens=[[1, 0, 0, 1, 2, 1]])))
    with pytest.raises(ConfigError, match="m=6"):
        classdata.load_config(path)
    path.write_text(json.dumps(trivial_config(7, extra_R_unit_gens=[[0, 1]])))
    with pytest.raises(ConfigError, match="not a unit"):
        classdata.load_config(path)


def test_stability_at_the_top_degree_decides_every_m():
    # validate checks U_{p-1} for extra R generators and U_p for extra ES
    # generators; building and checking every U_m gives the same verdict
    rng = random.Random(2027)
    verdicts = set()
    for _ in range(80):
        p = rng.choice((3, 5, 7, 11))
        key, m = rng.choice((("extra_R_unit_gens", p - 1), ("extra_ES_unit_gens", p)))
        gen = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(m - 1))
        base = classdata.trivial(p)
        data = classdata.ClassData(p, base.H_p, base.H_p2, **{key: (gen,)})
        stable = every_m_stable(data)
        verdicts.add(stable)
        if stable:
            data.validate()
        else:
            with pytest.raises(ConfigError, match=f"for m={m} is not Galois-stable"):
                data.validate()
    assert verdicts == {True, False}


@pytest.mark.parametrize("p, key, vec, m", [
    (7, "extra_R_unit_gens", [1, 0, 0, 1, 2, 0], 6),
    (5, "extra_ES_unit_gens", [1, 0, 0, 1, 0], 5),
])
def test_extra_generator_load_builds_one_quotient(tmp_path, p, key, vec, m):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(trivial_config(p, **{key: [vec]})))
    modring.compute_Um.cache_clear()
    data = classdata.load_config(path)
    info = modring.compute_Um.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    data.unit_quotient(m)
    assert modring.compute_Um.cache_info().hits == info.hits + 1


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_malformed_config_is_a_config_error(tmp_path, name):
    # a boolean, a fraction, a string or a list where an integer is due is
    # refused, not coerced; so are bad bytes, deep nesting and overlong
    # numerals, and each refusal is a ConfigError naming its field
    raw, message = MALFORMED_CONFIGS[name]
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=message):
        classdata.load_config(path)


def test_config_read_is_bounded(tmp_path):
    # one byte over the bound is refused before parsing (the file is not
    # even JSON); the bound itself still parses
    path = tmp_path / "long.json"
    path.write_bytes(b" " * (classdata.MAX_CONFIG_BYTES + 1))
    with pytest.raises(ConfigError, match=f"longer than {classdata.MAX_CONFIG_BYTES} bytes"):
        classdata.load_config(path)
    text = json.dumps(C43_CONFIG).encode()
    path.write_bytes(text + b" " * (classdata.MAX_CONFIG_BYTES - len(text)))
    assert classdata.load_config(path).H_p2.target.factors == (43,)


def test_valid_configs_load_to_equal_class_data(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(C43_CONFIG))
    assert classdata.load_config(path) == synthetic_c43()
    for p in (2, 3, 5):
        path.write_text(json.dumps({**trivial_config(p),
                                    "provenance": f"built-in: class number one for p={p}"}))
        assert classdata.load_config(path) == classdata.builtin(p)


def test_provenance_is_a_note_the_loader_does_not_keep(tmp_path):
    path = tmp_path / "cfg.json"
    loaded = []
    for note in ({"provenance": "one note"}, {"provenance": "another"}, {}):
        cfg = {k: v for k, v in C43_CONFIG.items() if k != "provenance"}
        path.write_text(json.dumps({**cfg, **note}))
        loaded.append(classdata.load_config(path))
    assert loaded[0] == loaded[1] == loaded[2] == synthetic_c43()
    assert len({hash(data) for data in loaded}) == 1
