from ptmpow import core_arith, fpow
from ptmpow.core_arith import IntPoly

import oracles

# each reference route at a small size; maxmin_scan reads the kernel, so it
# is not among them
_CALLS = {
    "tm_oracle": lambda: [oracles.tm_oracle(m, n) for m in (1, 2, 3) for n in range(12)],
    "t2_two_term_prefix": lambda: oracles.t2_two_term_prefix(40),
    "v2_t2k_piecewise": lambda: [oracles.v2_t2k_piecewise(k, n) for k in (1, 2) for n in range(20)],
    "v2_t3_rec": lambda: [oracles.v2_t3_rec(n) for n in range(60)],
    "b1_euler_prefix": lambda: oracles.b1_euler_prefix(40),
    "b1_oracle": lambda: [oracles.b1_oracle(n) for n in range(20)],
    "bm_alt_prefix": lambda: [oracles.bm_alt_prefix(m, 20) for m in (1, 2, 3)],
    "bm_oracle": lambda: [oracles.bm_oracle(m, n) for m in (1, 2, 3) for n in range(12)],
    "v2_b2k1_reduced": lambda: [oracles.v2_b2k1_reduced(k, n) for k in (1, 2) for n in range(30)],
    "g_prefix_alt1": lambda: oracles.g_prefix_alt1(8),
    "g_prefix_alt2": lambda: oracles.g_prefix_alt2(8),
    "_rising_factorials": lambda: oracles._rising_factorials(6),
    "_falling_factorials": lambda: oracles._falling_factorials(6),
    "_g_rows_reference": lambda: oracles._g_rows_reference(8),
    "fseries_bounds": lambda: oracles.fseries_bounds(20),
    "CoeffTable": lambda: [oracles.CoeffTable().a(i, n) for n in range(8) for i in range(n + 1)],
    "log_series_oracle": lambda: oracles.log_series_oracle(20, base=3),
    "product_series_oracle": lambda: [oracles.product_series_oracle(t, 20) for t in (-2, 3)],
    "_mul_schoolbook": lambda: oracles._mul_schoolbook([1, 0, -2], [3, 4]),
    "_h_per_child": lambda: [oracles._h_per_child(i, 3, 2, {}) for i in range(8)],
    "kernel_pattern_count": lambda: oracles.kernel_pattern_count(list(range(-4, 16)), 3, 2),
}


def _raise(*_):
    raise AssertionError("a reference route reached the production arithmetic")


def test_oracles_share_no_arithmetic_with_the_production_code(monkeypatch):
    defined = {name for name, v in vars(oracles).items()
               if callable(v) and getattr(v, "__module__", None) == oracles.__name__}
    assert defined == set(_CALLS) | {"maxmin_scan", "_add_scaled", "_flip"}
    # the module binds none of the production routes, under any name
    banned = {"convolve": core_arith.convolve, "kron_pack": core_arith.kron_pack, "fpow": fpow,
              "fpow_prefix": fpow.fpow_prefix, "fpow_residues": fpow.fpow_residues,
              "fpow_at": fpow.fpow_at, "fpow_doubles": fpow.fpow_doubles}
    assert not set(banned) & set(vars(oracles))
    assert not any(v is b for v in vars(oracles).values() for b in banned.values())
    # and every route returns the same values with all of them disabled
    before = {name: call() for name, call in _CALLS.items()}
    for owner, name in ((core_arith, "convolve"), (core_arith, "kron_pack"), (IntPoly, "__mul__"),
                        (IntPoly, "__rmul__"), (fpow, "fpow_prefix"), (fpow, "fpow_residues"),
                        (fpow, "fpow_at"), (fpow, "fpow_doubles")):
        monkeypatch.setattr(owner, name, _raise)
    for name, call in _CALLS.items():
        assert call() == before[name], name
