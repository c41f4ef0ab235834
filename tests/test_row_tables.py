"""Per-stage row tables: a derivative pass reads everything it needs by agent
from its instance's RowTable, and gives the bits of the gathering pass it
replaced, which is kept here as the reference."""

import collections

import numpy as np
import pytest

import pricecoord as pc
from pricecoord.equilibrium import _payoff_derivatives
from pricecoord.model import _ordered_sum, _squared_norms, pair_batch_rows
from test_geometry import bit_equal


def reference_grad_hess_rows(G, Y, X, rows):
    """CouplingFunction._grad_hess_rows as it was before row tables: the
    self-pair index, the other-pair index and the identity rebuilt on every
    call. Also the coupling Hessian of the per-agent reference
    (per_agent.py)."""
    k = len(rows)
    if G.scale == 0.0:
        return np.zeros(np.shape(Y)), np.zeros((k, G.d, G.d))
    D = Y[:, None, :] - X
    D[np.arange(k), rows, :] = 0.0
    w, c = G.pair_terms(_squared_norms(D))
    others = G._others[rows] + G.N * np.arange(k)[:, None]
    D_o, w_o, c_o = D.reshape(-1, G.d).take(others, axis=0), w.take(others), c.take(others)
    return (_ordered_sum(w[..., None] * D, axis=-2),
            w_o.sum(axis=-1)[:, None, None] * np.eye(G.d)
            + 2.0 * (D_o.transpose(0, 2, 1) * c_o[:, None, :]) @ D_o)


def reference_values(G, Xs):
    """CouplingFunction.values as it was before it summed only its pairs:
    every ordered pair of the (K, N, N) difference array, those with n >= m
    masked to +0.0, summed in row-major order."""
    Xs = np.asarray(Xs, dtype=float).reshape(-1, G.N, G.d)
    if G.scale == 0.0:
        return np.zeros(len(Xs))
    sq = _squared_norms(Xs[..., :, None, :] - Xs[..., None, :, :])
    upper = np.triu(np.ones((G.N, G.N), dtype=bool), 1)
    pairs = np.where(upper, G.pair_value(sq), 0.0).reshape(len(Xs), -1)
    return G.scale * _ordered_sum(pairs, axis=1)


def reference_payoff_derivatives(sys, V, X, rows, Y=None):
    """equilibrium._payoff_derivatives as it was before row tables: every
    model array the rows read gathered again on each call."""
    Ax, B, quadratic = sys._stacked
    B = B[rows]
    if Y is None:
        Y = Ax[rows] + (B @ V[..., None])[..., 0]
    Bt = B.swapaxes(1, 2)
    g, H = reference_grad_hess_rows(sys.coupling, Y, X, rows)
    if quadratic is None:
        agents = [(sys.utilities[n], sys.dynamics[n], sys.states[n]) for n in rows]
        g_u = np.array([ut.grad_u(dyn, x, v) for (ut, dyn, x), v in zip(agents, V)])
        H_u = np.array([ut.hess_u(dyn, x, v) for (ut, dyn, x), v in zip(agents, V)])
    else:
        # the Hessians were built for all agents once and gathered
        Bt_all = sys._stacked[1].swapaxes(1, 2)
        H_u = (-2.0 * (Bt_all @ quadratic[0] @ Bt_all.swapaxes(1, 2) + quadratic[1]))[rows]
        Q, R, x0 = (a[rows] for a in quadratic)
        g_u = (((-2.0 * Bt) @ (Q @ (Y - x0)[..., None]))[..., 0]
               - 2.0 * (R @ V[..., None])[..., 0])
    return g_u + (Bt @ g[..., None])[..., 0], H_u + Bt @ H @ B


def _instance(coupling, utility, N, d, seed=0):
    """A generated instance with general A and B, so that a product's order
    shows in its bits, and the named coupling; the barrier's radius reaches
    every pair of the sampled next states."""
    cfg = pc.config_from_dict({"N": N, "d": d, "seed": seed, "utility_spec": utility,
                               "coupling_spec": "separation_barrier",
                               "coupling_strength": 50.0, "safety_radius": 30.0})
    base = pc.generate(cfg)
    rng = np.random.default_rng(seed)
    dynamics = tuple(pc.LinearDynamics(A=np.eye(d) + 0.3 * rng.normal(size=(d, d)),
                                       B=np.eye(d) + 0.3 * rng.normal(size=(d, d)))
                     for _ in range(N))
    G = {"barrier": base.coupling,
         "consensus": pc.pairwise_quadratic_coupling(0.7, N, d),
         "zero": pc.zero_coupling(N, d)}[coupling]
    return pc.SystemInstance(dynamics, base.utilities, G, base.states)


def _row_sets(N):
    return {"all": np.arange(N), "one": np.array([N // 2]),
            "subset": np.arange(N)[::2] if N > 2 else np.array([1])}


@pytest.mark.parametrize("utility", ["quadratic_random", "quadratic_fixed", "cross_term",
                                     "decomposable_smooth"])
@pytest.mark.parametrize("coupling", ["barrier", "consensus", "zero"])
def test_a_table_pass_equals_the_gathering_reference_bit_for_bit(coupling, utility):
    for N in (2, 3, 7, 30):
        for d in (1, 2, 3):
            sys = _instance(coupling, utility, N, d)
            rng = np.random.default_rng(100 * N + d)
            X = 3.0 * rng.normal(size=(N, d))
            for name, rows in _row_sets(N).items():
                V = rng.normal(size=(len(rows), d))
                Y = X[rows] + 0.5 * rng.normal(size=(len(rows), d))
                for given in (None, Y):
                    g, H = _payoff_derivatives(sys, V, X, rows, given)
                    g_ref, H_ref = reference_payoff_derivatives(sys, V, X, rows, given)
                    assert np.array_equal(g, g_ref), (N, d, name)
                    assert np.array_equal(H, H_ref), (N, d, name)
                G = sys.coupling
                got = G._grad_hess_rows(Y, X, G._pair_table(rows))
                for a, b in zip(got, reference_grad_hess_rows(G, Y, X, rows)):
                    assert np.array_equal(a, b), (N, d, name)
                if coupling != "zero" and N > 1:
                    assert np.any(got[1] != 0.0)


def test_the_pair_pass_zeroes_the_self_pairs_whatever_the_order_of_x():
    # the pass gathers each row's N - 1 other agents from X, so it forms no
    # self pair to zero; a Fortran-ordered X still gives the C-ordered bits
    G = _instance("barrier", "quadratic_random", 7, 3).coupling
    rng = np.random.default_rng(3)
    X = 3.0 * rng.normal(size=(7, 3))
    rows = np.array([1, 4, 6])
    Y = X[rows] + 0.5 * rng.normal(size=(3, 3))
    pairs = G._pair_table(rows)
    for a, b in zip(G._grad_hess_rows(Y, np.asfortranarray(X), pairs),
                    G._grad_hess_rows(Y, X, pairs)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("coupling", ["barrier", "consensus", "zero"])
def test_values_sum_only_their_pairs_with_the_masked_sums_bits(coupling):
    # sign of zero included: no sum here has only -0.0 terms
    for N in (1, 2, 3, 7, 30):
        for d in (1, 2, 3):
            G = {"barrier": pc.separation_barrier_coupling(50.0, 30.0, N, d),
                 "consensus": pc.pairwise_quadratic_coupling(0.7, N, d),
                 "zero": pc.zero_coupling(N, d)}[coupling]
            rng = np.random.default_rng(10 * N + d)
            Xs = 3.0 * rng.normal(size=(5, N, d))
            if N > 1:
                Xs[:, 1] = Xs[:, 0]  # a coincident pair
            assert bit_equal(G.values(Xs), reference_values(G, Xs)), (N, d)
            assert bit_equal(G.value(Xs[0]), reference_values(G, Xs[0])[0]), (N, d)
    sys = _instance(coupling, "quadratic_random", 30, 2)
    Xs = 3.0 * np.random.default_rng(7).normal(size=(pair_batch_rows(sys) + 3, 30, 2))
    assert bit_equal(sys.coupling.values(Xs), reference_values(sys.coupling, Xs))


def test_a_pass_on_replaced_states_reads_the_new_instance():
    sys = _instance("barrier", "quadratic_random", 3, 2)
    rows, rng = np.arange(3), np.random.default_rng(1)
    V, X = rng.normal(size=(3, 2)), 3.0 * rng.normal(size=(3, 2))
    old = _payoff_derivatives(sys, V, X, rows)
    moved = pc.replace_states(sys, np.array(sys.states) + 1.0)
    new = _payoff_derivatives(moved, V, X, rows)
    assert moved._row_tables is not sys._row_tables
    assert np.array_equal(moved._row_table(rows).Ax, moved._stacked[0])
    assert not np.array_equal(moved._row_table(rows).Ax, sys._row_table(rows).Ax)
    for a, b in zip(new, reference_payoff_derivatives(moved, V, X, rows)):
        assert np.array_equal(a, b)
    assert not np.array_equal(new[0], old[0])


@pytest.mark.parametrize("utility", ["quadratic_random", "cross_term"])
def test_a_row_table_is_read_only(utility):
    sys = _instance("barrier", utility, 4, 2)
    table = sys._row_table(np.array([0, 2]))
    arrays = [getattr(table, f) for f in ("Ax", "B", "Bt", "minus_2Bt")]
    arrays += list(table.pairs)
    if table.quadratic is not None:
        arrays += [*table.quadratic, table.hessians]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_a_row_table_takes_only_intp_rows():
    sys = _instance("barrier", "quadratic_random", 3, 2)
    with pytest.raises(TypeError, match="intp"):
        sys._row_table(np.array([1, 0], dtype=np.int32))


def test_each_row_set_is_tabled_once_per_stage(monkeypatch):
    # the README stage loop up to stage 20, whose Newton solves leave rows
    # behind: each instance builds one table per row set, on its first use,
    # and every other derivative pass on the row set reads it
    cfg = pc.config_from_dict({"N": 3, "d": 2, "seed": 13, "coupling_strength": 50.0,
                               "safety_radius": 6.0, "noise_std": 0.01})
    built, lookups = collections.Counter(), collections.Counter()
    real_build, real_lookup = pc.model._build_row_table, pc.SystemInstance._row_table

    def build(sys_, rows):
        built[id(sys_), rows.tobytes()] += 1
        return real_build(sys_, rows)

    def lookup(sys_, rows):
        lookups[id(sys_), rows.tobytes()] += 1
        return real_lookup(sys_, rows)

    monkeypatch.setattr(pc.model, "_build_row_table", build)
    monkeypatch.setattr(pc.SystemInstance, "_row_table", lookup)
    pcfg, inst, noise = pc.polling_config(cfg), pc.generate(cfg), pc.noise_streams(cfg)
    u, held = np.zeros((cfg.N, cfg.d)), []
    for _ in range(21):
        u = pc.run_stage(inst, u, pcfg).u_final
        held.append(inst)  # keeps each id() distinct
        inst = pc.replace_states(inst, [
            pc.step(inst.dynamics[n], inst.states[n], u[n],
                    cfg.noise_std * noise[n].normal(size=cfg.d)) for n in range(cfg.N)])
    assert set(built.values()) == {1} and set(built) == set(lookups)
    assert all(len(s._row_tables) == sum(key[0] == id(s) for key in built) for s in held)
    assert len(held[0]._row_tables) == 1 and max(len(s._row_tables) for s in held) > 1
    assert sum(lookups.values()) > 10 * len(built)
