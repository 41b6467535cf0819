import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from extvae import autodiff as ad
from extvae import model as mdl
from extvae import training as tr
from extvae.autodiff import (
    ArrayView,
    NonFiniteError,
    ParamVector,
    fd_check,
    gradient,
    value_and_gradient,
)
from extvae.seeds import substream


def make_pv(**parts):
    return ParamVector.build({k: np.asarray(v, dtype=np.float64)
                              for k, v in parts.items()})


class TestParamVector:
    def test_round_trip_identity(self):
        rng = substream(0)
        parts = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
                 "c": rng.standard_normal((2, 2, 2))}
        pv = ParamVector.build(parts)
        for name, arr in parts.items():
            np.testing.assert_array_equal(pv.view(name), arr)
        rebuilt = ParamVector.build({name: pv.view(name) for name in pv.layout})
        np.testing.assert_array_equal(rebuilt.data, pv.data)

    def test_locate(self):
        pv = make_pv(a=np.zeros((2, 3)), b=np.zeros(4))
        assert pv.locate(0) == ("a", (0, 0))
        assert pv.locate(5) == ("a", (1, 2))
        assert pv.locate(6) == ("b", (0,))


class TestBasics:
    def test_quadratic_gradient(self):
        pv = make_pv(p=np.array([1.0, -2.0, 3.0]))
        g = gradient(lambda v: ad.vsum(v["p"] * v["p"]), pv)
        np.testing.assert_allclose(g, 2 * pv.data, rtol=1e-12)

    def test_softplus_at_zero(self):
        pv = make_pv(p=np.array([0.0]))
        g = gradient(lambda v: ad.vsum(ad.softplus(v["p"])), pv)
        assert g[0] == pytest.approx(0.5, rel=1e-12)

    def test_linear_fd_exact(self):
        pv = make_pv(p=np.array([0.3, -1.1, 2.0]))
        w = np.array([2.0, -1.0, 0.5])
        rep = fd_check(lambda v: ad.vsum(v["p"] * w), pv)
        assert rep.max_rel_err < 1e-9

    def test_sum_of_losses_is_sum_of_gradients(self):
        rng = substream(4)
        pv = make_pv(p=rng.standard_normal(6))
        a = np.abs(rng.standard_normal(6)) + 0.5
        b = rng.standard_normal(6)

        def f(v):
            return ad.vsum(ad.exp(v["p"] * 0.1) * a)

        def g(v):
            return ad.vsum(v["p"] * v["p"] * b)

        gf = gradient(f, pv)
        gg = gradient(g, pv)
        gsum = gradient(lambda v: f(v) + g(v), pv)
        np.testing.assert_allclose(gsum, gf + gg, rtol=1e-12)

    def test_gradient_deterministic_bits(self):
        rng = substream(5)
        pv = make_pv(w=rng.standard_normal((4, 3)), b=rng.standard_normal(3))
        x = rng.standard_normal((7, 4))

        def loss(v):
            return ad.vsum(ad.softplus(ad.add(ad.matmul(x, v["w"]), v["b"])))

        g1 = gradient(loss, pv)
        g2 = gradient(loss, pv)
        assert np.array_equal(g1, g2)

    def test_constant_loss_zero_gradient(self):
        pv = make_pv(p=np.array([1.0]))
        val, g = value_and_gradient(lambda v: np.float64(3.5), pv)
        assert val == 3.5 and np.all(g == 0)

    def test_nonfinite_names_op(self):
        pv = make_pv(p=np.array([-1.0]))
        with pytest.raises(NonFiniteError, match="log"):
            gradient(lambda v: ad.vsum(ad.log(v["p"])), pv)


class TestOpGradients:
    """Each primitive against central differences on random instances."""

    def _check(self, loss, pv, tol=1e-6):
        rep = fd_check(loss, pv, step=1e-6)
        assert rep.max_rel_err < tol, rep.argmax
        return rep

    def test_matmul(self):
        rng = substream(10)
        pv = make_pv(a=rng.standard_normal((3, 4)), b=rng.standard_normal((4, 2)))
        self._check(lambda v: ad.vsum(ad.matmul(v["a"], v["b"])), pv)

    def test_exp_log_sqrt_div(self):
        rng = substream(11)
        pv = make_pv(p=np.abs(rng.standard_normal(5)) + 0.5)

        def loss(v):
            p = v["p"]
            return ad.vsum(ad.exp(p * 0.3) + ad.log(p) + ad.sqrt(p) + 1.0 / p)

        self._check(loss, pv)

    def test_abs_away_from_kink(self):
        pv = make_pv(p=np.array([0.5, -1.5, 2.0]))
        self._check(lambda v: ad.vsum(ad.absolute(v["p"])), pv)

    def test_abs_subgradient_zero_at_kink(self):
        pv = make_pv(p=np.array([0.0]))
        g = gradient(lambda v: ad.vsum(ad.absolute(v["p"])), pv)
        assert g[0] == 0.0

    def test_kink_prefilter_flags_coordinates(self):
        pv = make_pv(p=np.array([1.0, 3.0]))
        x = np.array([1.0, 5.0])  # first coordinate sits exactly on the kink

        def loss(v):
            return ad.vsum(ad.absolute(ad.log(v["p"]) - np.log(x)))

        rep = fd_check(loss, pv)
        assert rep.skipped[0] and not rep.skipped[1]
        assert rep.n_skipped == 1
        assert rep.max_rel_err < 1e-6

    def test_kink_filter_skips_max_pool_tie(self):
        pv = make_pv(p=np.array([1.0, 1.0, 0.0, 2.0]))   # first window tied

        def loss(v):
            pooled = ad.maxpool1d(ad.reshape(v["p"], (1, 1, 4)), 2)
            return ad.vsum(pooled * np.array([2.0, 3.0]))

        rep = fd_check(loss, pv)
        np.testing.assert_array_equal(rep.skipped, [True, True, False, False])
        assert rep.max_rel_err < 1e-9

    def test_kink_filter_skips_penalty_abs_kink(self):
        # the first coefficient does not change between the two steps
        pv = make_pv(xi=np.array([[1.0, 2.0], [1.0, 3.0]]))

        def loss(v):
            return mdl.penalty(v["xi"][1:], v["xi"][:1], np.array([0.6]),
                               np.array([0.1]), 0.5, absolute=True)

        rep = fd_check(loss, pv)
        np.testing.assert_array_equal(rep.skipped, [True, False, True, False])
        assert rep.max_rel_err < 1e-9

    def test_take_rows_scatter(self):
        rng = substream(12)
        pv = make_pv(m=rng.standard_normal((4, 3)))
        idx = np.array([0, 0, 2, 3, 3, 3])
        w = rng.standard_normal((6, 3))
        self._check(lambda v: ad.vsum(ad.take_rows(v["m"], idx) * w), pv)

    @pytest.mark.parametrize("idx", [[0, 2, 3], [0, 0, 2, 3], [3, 1, 2], [4, 0]])
    def test_take_rows_vjp_bits(self, idx):
        # the scatter-add of np.add.at, signed zeros included: 0.0 + -0.0 is 0.0
        idx = np.array(idx)
        g = substream(14).standard_normal((idx.size, 3))
        g[0] = -0.0
        ((_, vjp),) = ad.take_rows(ad.Var(np.ones((5, 3))), idx).parents
        want = np.zeros((5, 3))
        np.add.at(want, idx, g)
        assert vjp(g).tobytes() == want.tobytes()

    def test_getitem_slice(self):
        rng = substream(13)
        pv = make_pv(m=rng.standard_normal((4, 6)))
        self._check(lambda v: ad.vsum(ad.exp(v["m"][:, 2:5] * 0.2)), pv)

    def test_stack_and_reshape(self):
        rng = substream(14)
        pv = make_pv(a=rng.standard_normal((3, 2)), b=rng.standard_normal((3, 2)))

        def loss(v):
            s = ad.stack([v["a"], v["b"]], axis=2)     # (3, 2, 2)
            return ad.vsum(ad.reshape(s, (3, 4)) * np.arange(12.0).reshape(3, 4))

        self._check(loss, pv)

    def test_broadcast_bias(self):
        rng = substream(15)
        pv = make_pv(w=rng.standard_normal((5, 3)), b=rng.standard_normal(3))
        x = rng.standard_normal((7, 5))
        self._check(lambda v: ad.vsum(ad.softplus(x @ v["w"] + v["b"])), pv)

    def test_conv1d_same(self):
        rng = substream(16)
        pv = make_pv(k=rng.standard_normal((4, 3, 3)) * 0.3,
                     b=rng.standard_normal(4) * 0.1,
                     x=rng.standard_normal((2, 3, 8)))
        w = rng.standard_normal((2, 4, 8))
        self._check(lambda v: ad.vsum(ad.conv1d_same(v["x"], v["k"], v["b"]) * w), pv)

    def test_conv1d_shapes(self):
        x = np.zeros((2, 3, 10))
        k = np.zeros((5, 3, 3))
        out = ad.conv1d_same(x, k, np.zeros(5))
        assert out.shape == (2, 5, 10)

    def test_maxpool_forward_and_ties(self):
        x = np.array([[[1.0, 1.0, 2.0, 0.5, -1.0, -1.0]]])
        out = ad.maxpool1d(x, 2)
        np.testing.assert_array_equal(out, [[[1.0, 2.0, -1.0]]])

    def test_maxpool_gradient(self):
        rng = substream(17)
        # break ties so the max is unique and FD is valid
        base = rng.standard_normal((2, 3, 8)) + np.linspace(0, 1, 8) * 0.01
        pv = make_pv(x=base)
        w = rng.standard_normal((2, 3, 4))
        self._check(lambda v: ad.vsum(ad.maxpool1d(v["x"], 2) * w), pv)

    def test_maxpool_requires_divisible_length(self):
        with pytest.raises(ValueError):
            ad.maxpool1d(np.zeros((1, 1, 5)), 2)

    def test_softplus_inverse_round_trip(self):
        y = np.array([1e-3, 0.1, 1.0, 20.0])
        np.testing.assert_allclose(ad.softplus(ad.softplus_inverse(y)), y,
                                   rtol=1e-10)


def _maxpool_reference(xv, width):
    """The argmax/take_along_axis max-pool and its put_along_axis vjp."""
    b, c, length = xv.shape
    xr = xv.reshape(b, c, length // width, width)
    idx = np.argmax(xr, axis=3)
    out = np.take_along_axis(xr, idx[..., None], axis=3)[..., 0]

    def vjp(g):
        acc = np.zeros_like(xr)
        np.put_along_axis(acc, idx[..., None], g[..., None], axis=3)
        return acc.reshape(b, c, length)

    return out, vjp


def _tied_pool_input(width, seed):
    """Values on a coarse lattice (many exact ties) with signed zeros."""
    rng = substream(seed, "pool")
    x = rng.integers(-2, 3, size=(3, 4, 4 * width)).astype(np.float64)
    x[x == 0] = rng.choice([-0.0, 0.0], size=int(np.sum(x == 0)))
    x[0, 0, :width] = [-0.0 if q % 2 == 0 else 0.0 for q in range(width)]
    x[0, 1, :width] = [0.0 if q % 2 == 0 else -0.0 for q in range(width)]
    return x


class TestMaxPoolOracle:
    """maxpool1d against the argmax kernel it replaced, bit for bit."""

    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize("tied", [False, True])
    def test_forward_and_vjp_bits(self, width, tied):
        x = (_tied_pool_input(width, width) if tied
             else substream(width, "pool").standard_normal((3, 4, 4 * width)))
        ref, ref_vjp = _maxpool_reference(x, width)
        plain = ad.maxpool1d(x, width)
        assert plain.tobytes() == ref.tobytes()
        leaf = ad.Var(x)
        node = ad.maxpool1d(leaf, width)
        assert node.value.tobytes() == ref.tobytes()
        ((parent, vjp),) = node.parents
        assert parent is leaf
        g = substream(width, "g").standard_normal(ref.shape)
        assert vjp(g).tobytes() == ref_vjp(g).tobytes()

    def test_signed_zero_and_ties_keep_first_slot(self):
        x = np.array([[[-0.0, 0.0, 0.0, -0.0, 3.0, 3.0, 1.0, 2.0]]])
        leaf = ad.Var(x)
        out = ad.maxpool1d(leaf, 2)
        assert np.signbit(out.value[0, 0]).tolist() == [True, False, False, False]
        ad.vsum(out * np.array([1.0, 2.0, 3.0, 4.0])).backward()
        np.testing.assert_array_equal(leaf.grad[0, 0],
                                      [1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 4.0])


def _conv_reference(xv, kv, bv):
    """The einsum convolution and its three einsum vjps (x, kernel, bias)."""
    width, length = kv.shape[2], xv.shape[2]
    pad_l = (width - 1) // 2
    xp = np.pad(xv, ((0, 0), (0, 0), (pad_l, width - 1 - pad_l)))
    win = sliding_window_view(xp, width, axis=2)  # (B, Cin, L, width)
    out = np.einsum("bilq,ciq->bcl", win, kv, optimize=True) + bv[:, None]

    def vjp_x(g):
        dwin = np.einsum("bcl,ciq->bilq", g, kv, optimize=True)
        dxp = np.zeros_like(xp)
        for q in range(width):
            dxp[:, :, q : q + length] += dwin[:, :, :, q]
        return dxp[:, :, pad_l : pad_l + length]

    return out, (vjp_x, lambda g: np.einsum("bilq,bcl->ciq", win, g, optimize=True),
                 lambda g: g.sum(axis=(0, 2)))


def _reference_conv_op(x, kernel, bias):
    out, vjps = _conv_reference(*(ad.value_of(a) for a in (x, kernel, bias)))
    parents = tuple((a, vjp) for a, vjp in zip((x, kernel, bias), vjps)
                    if isinstance(a, ad.Var))
    return ad.Var(out, parents, "conv1d_same") if parents else out


def _reference_pool_op(x, width):
    out, vjp = _maxpool_reference(ad.value_of(x), width)
    return ad.Var(out, ((x, vjp),), "maxpool1d") if isinstance(x, ad.Var) else out


class TestConvOracle:
    """conv1d_same against the einsum kernel it replaced, bit for bit.  The
    upstream gradient is in C order in both, as in training: backward copied
    the old max-pool vjp's view into C order."""

    @pytest.mark.parametrize("batch, cin, length, cout, width", [
        (200, 3, 32, 40, 3),        # a desk training step
        (1400, 3, 32, 40, 3),       # a desk emulate chunk
        (7, 3, 12, 5, 1), (7, 3, 12, 5, 2), (7, 3, 12, 5, 4), (7, 3, 12, 5, 5),
        (1, 3, 12, 5, 3), (6, 1, 12, 5, 3), (2, 2, 3, 4, 5), (3, 2, 2, 4, 7),
    ])
    def test_forward_and_vjp_bits(self, batch, cin, length, cout, width):
        rng = substream(batch + width, "conv")
        xv = rng.standard_normal((batch, cin, length))
        kv = rng.standard_normal((cout, cin, width))
        bv = rng.standard_normal(cout)
        g = rng.standard_normal((batch, cout, length))
        ref, ref_vjps = _conv_reference(xv, kv, bv)
        assert ad.conv1d_same(xv, kv, bv).tobytes() == ref.tobytes()
        leaves = [ad.Var(a) for a in (xv, kv, bv)]
        node = ad.conv1d_same(*leaves)
        assert node.value.tobytes() == ref.tobytes()
        assert node.value.flags.c_contiguous
        assert [p for p, _ in node.parents] == leaves
        for (_, vjp), ref_vjp in zip(node.parents, ref_vjps):
            assert vjp(g).tobytes() == ref_vjp(g).tobytes()

    def test_decode_layout(self):
        # conv and pool outputs are C order, so the flatten is a view
        cfg = mdl.ModelConfig(n_sites=9, hyper=mdl.HyperParams())
        pv = mdl.init_params(cfg, 0)
        stacked = ad.Var(substream(0, "stacked").standard_normal((50, 3, 32)))
        nodes = ad._toposort(mdl._xi_from_stacked(cfg, ad.VarView(pv), stacked))
        (conv,) = [n for n in nodes if n.op == "conv1d_same"]
        (pool,) = [n for n in nodes if n.op == "maxpool1d"]
        (flat,) = [n for n in nodes if n.op == "reshape"]
        assert conv.value.flags.c_contiguous and pool.value.flags.c_contiguous
        assert flat.parents[0][0] is pool
        assert np.shares_memory(flat.value, pool.value)

    def test_objective_gradient_bits(self, monkeypatch):
        """The desk-shape objective and its gradient, with the reference
        conv and max-pool swapped in, are the same bits."""
        cfg = mdl.ModelConfig(n_sites=400, hyper=mdl.HyperParams())
        rng = substream(3, "desk")
        x = np.exp(rng.standard_normal((200, 400)))
        c = rng.uniform(size=200)
        eps = mdl.draw_eps(cfg, 200, 3)
        pv = mdl.init_params(cfg, 3)

        def loss(p):
            return mdl.penalized_elbo(cfg, p, x, c, eps)

        value, grad = value_and_gradient(loss, pv)
        monkeypatch.setattr(ad, "conv1d_same", _reference_conv_op)
        monkeypatch.setattr(ad, "maxpool1d", _reference_pool_op)
        ref_value, ref_grad = value_and_gradient(loss, pv)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()


class TestViews:
    def test_array_view_matches_var_view_values(self):
        rng = substream(18)
        pv = make_pv(w=rng.standard_normal((3, 3)))

        def loss(v):
            return ad.vsum(ad.exp(v["w"] * 0.1))

        val_var, _ = value_and_gradient(loss, pv)
        val_arr = float(loss(ArrayView(pv)))
        assert val_var == pytest.approx(val_arr, rel=1e-15)


class TestGradientOwnership:
    """After backward only leaves hold a grad, and no two grads share memory:
    backward keeps a vjp's fresh array, hands a sole parent the finished
    node's g or a C-order view of it, and copies g shared between parents or
    a view in another layout."""

    @staticmethod
    def _backward(y):
        nodes = ad._toposort(y)     # collected first: backward releases the tape
        leaves = [n for n in nodes if not n.parents]
        y.backward()
        assert [n for n in nodes if n.grad is not None] == leaves
        assert all(not n.parents for n in nodes)
        grads = [n.grad for n in leaves]
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)

    def test_leaf_feeding_both_operands(self):
        a = ad.Var([1.0, -2.0, 3.0])
        self._backward(ad.vsum(ad.add(a, a)))
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        b = ad.Var([1.0, -2.0, 3.0])
        self._backward(ad.vsum(ad.mul(b, b)))
        np.testing.assert_array_equal(b.grad, 2.0 * b.value)

    def test_pass_through_add_to_two_parents(self):
        # add hands the same g to a and b; a then gains a second contribution
        a, b = ad.Var([1.0, 2.0]), ad.Var([-3.0, 0.5])
        w = np.array([0.25, -4.0])
        s = ad.add(a, b)
        self._backward(ad.vsum(ad.add(ad.mul(s, w), ad.mul(a, 3.0))))
        np.testing.assert_array_equal(a.grad, w + 3.0)
        np.testing.assert_array_equal(b.grad, w)
        assert s.grad is None

    def test_reshape_and_transpose_views(self):
        w = substream(19).standard_normal((2, 3))
        a = ad.Var(np.arange(6.0))
        self._backward(ad.vsum(ad.mul(ad.reshape(a, (2, 3)), w)))
        np.testing.assert_array_equal(a.grad, w.ravel())
        assert not a.grad.flags.owndata         # the reshape's g, handed on
        b = ad.Var(np.arange(6.0).reshape(3, 2))
        self._backward(ad.vsum(ad.mul(ad.transpose(b), w)))
        np.testing.assert_array_equal(b.grad, w.T)
        assert b.grad.flags.owndata and b.grad.flags.c_contiguous   # copied
        c = ad.Var(np.arange(6.0).reshape(2, 3))
        self._backward(ad.vsum(ad.mul(ad.transpose(ad.reshape(c, (3, 2))), w)))
        np.testing.assert_array_equal(c.grad, w.T.reshape(2, 3))

    def test_sole_parent_of_add_takes_g(self):
        a = ad.Var([1.0, -2.0])
        self._backward(ad.vsum(ad.mul(ad.add(a, 1.0), ad.add(a, 2.0))))
        np.testing.assert_array_equal(a.grad, 2.0 * a.value + 3.0)


def _keep_every_grad_backward(self):
    """Var.backward before the tape was released: every node keeps its grad
    and its vjps until the tape is dropped."""
    if self.value.ndim != 0 and self.value.size != 1:
        raise ValueError("backward() requires a scalar output")
    order = ad._toposort(self)
    self.grad = np.ones_like(self.value)
    for node in order:
        g = node.grad
        if g is None:
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            if parent.grad is not None:
                parent.grad += contrib
            elif (contrib is not g and contrib.flags.owndata
                  and contrib.flags.writeable):
                parent.grad = contrib
            else:
                parent.grad = contrib.copy()


def _desk_loss(n_t, batch_seed=None):
    """The desk-shape objective over n_t steps: the full batch, or the first
    minibatch training draws from ``substream(batch_seed, "shuffle", 0)``."""
    cfg = mdl.ModelConfig(n_sites=400, hyper=mdl.HyperParams())
    rng = substream(5, "desk", n_t)
    x = np.exp(rng.standard_normal((n_t, 400)))
    c = rng.uniform(size=n_t)
    eps = mdl.draw_eps(cfg, n_t, 5)
    batch = (None if batch_seed is None else
             next(tr._batches(n_t, None, substream(batch_seed, "shuffle", 0))))
    size = float(n_t if batch is None else len(batch))

    def loss(p):
        return -mdl.penalized_elbo(cfg, p, x, c, eps, batch=batch) / size

    return loss, mdl.init_params(cfg, 5)


class TestBackwardRelease:
    """backward releases the tape as it goes, against the keep-every-grad
    backward it replaced: the same gradient bits at a fraction of the memory."""

    @pytest.mark.parametrize("n_t, batch_seed", [(200, None), (600, 9)],
                             ids=["full-batch", "minibatch"])
    def test_leaf_gradients_match_oracle_bits(self, monkeypatch, n_t, batch_seed):
        loss, pv = _desk_loss(n_t, batch_seed)
        value, grad = value_and_gradient(loss, pv)
        monkeypatch.setattr(ad.Var, "backward", _keep_every_grad_backward)
        ref_value, ref_grad = value_and_gradient(loss, pv)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()

    def test_intermediate_nodes_are_freed(self):
        loss, pv = _desk_loss(200)
        kept, refs = [], []

        def taped(p):
            out = loss(p)
            kept.append(out)
            refs.extend(weakref.ref(n) for n in ad._toposort(out)
                        if n.parents and n is not out)
            return out

        value_and_gradient(taped, pv)
        (out,) = kept
        assert len(refs) > 50
        assert all(r() is None for r in refs)
        assert out.grad is None and out.parents == ()

    def test_traced_peak_near_forward_tape(self):
        loss, pv = _desk_loss(200)
        value_and_gradient(loss, pv)        # warm numpy's and BLAS's caches
        tracemalloc.start()
        try:
            out = loss(ad.VarView(pv))
            forward = tracemalloc.get_traced_memory()[1]
            del out
            tracemalloc.reset_peak()
            value_and_gradient(loss, pv)
            step = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step <= 1.25 * forward, (step, forward)
