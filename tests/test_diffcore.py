import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ops
from polyscale import diffcore as dc
from reference_lstm import bilstm_encode, bilstm_pair, lstm_encode, lstm_sequence


def make_store_with(rng, **shapes):
    store = dc.ParameterStore()
    for name, shape in shapes.items():
        store.add(name, rng.uniform(-1, 1, size=shape))
    return store


class TestTapeOps:
    """Every op's backward is checked against central differences."""

    def test_matmul_chain(self):
        rng = np.random.default_rng(0)
        store = make_store_with(rng, a=(4,), w=(4, 3), m=(3, 3), v=(3,))

        def loss():
            x = ops.matmul(store["a"], store["w"])
            x = ops.matmul(x, store["m"])
            return ops.matmul(x, store["v"])

        assert dc.check_gradients(loss, store) <= 1e-6

    def test_elementwise_and_activations(self):
        rng = np.random.default_rng(1)
        store = make_store_with(rng, x=(5,), y=(5,), z=(5,))
        ones = dc.constant(np.ones(5))

        def loss():
            s = ops.sigmoid(store["x"])
            t = ops.tanh(store["y"])
            q = ops.square(ops.sub(ops.mul(s, t), ops.scale(store["z"], 0.7)))
            u = ops.add(q, ops.mul(store["x"], store["x"]))
            return ops.matmul(u, ones)

        assert dc.check_gradients(loss, store) <= 1e-6

    def test_softmax_concat_mean(self):
        rng = np.random.default_rng(2)
        store = make_store_with(rng, a=(4,), b=(4,), w=(8,))

        def loss():
            pa = ops.softmax(store["a"])
            pb = ops.softmax(store["b"])
            m = ops.mean([ops.concat([pa, pb]), ops.concat([pb, pa])])
            return ops.matmul(m, store["w"])

        assert dc.check_gradients(loss, store) <= 1e-6

    def test_row_lookup(self):
        rng = np.random.default_rng(3)
        store = make_store_with(rng, table=(6, 3), v=(3,))

        def loss():
            picked = ops.mean([ops.row(store["table"], 1), ops.row(store["table"], 4)])
            return ops.matmul(picked, store["v"])

        assert dc.check_gradients(loss, store) <= 1e-6
        # untouched rows keep zero gradient
        store.zero_grad()
        dc.backward(loss())
        grad = store["table"].grad
        assert np.all(grad[0] == 0) and np.all(grad[2] == 0)
        assert np.any(grad[1] != 0) and np.any(grad[4] != 0)

    def test_reused_node_accumulates(self):
        store = dc.ParameterStore()
        x = store.add("x", np.array([2.0]))

        def loss():
            y = ops.mul(x, x)  # x^2, both parents are the same node
            return ops.matmul(y, dc.constant(np.ones(1)))

        store.zero_grad()
        dc.backward(loss())
        assert store["x"].grad[0] == pytest.approx(4.0)

    def test_shape_mismatch_rejected(self):
        a = dc.constant(np.ones(3))
        b = dc.constant(np.ones(4))
        with pytest.raises(ValueError, match="shape"):
            ops.add(a, b)

    def test_backward_needs_scalar_root(self):
        store = dc.ParameterStore()
        v = store.add("v", np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            dc.backward(ops.scale(v, 2.0))

    def test_unreachable_parameter_keeps_zero_grad(self):
        rng = np.random.default_rng(4)
        store = make_store_with(rng, used=(3,), unused=(3,))
        store.zero_grad()
        dc.backward(ops.matmul(store["used"], dc.constant(np.ones(3))))
        assert np.all(store["unused"].grad == 0.0)

    def test_node_gets_one_vjp_call_over_all_its_parents(self):
        store = dc.ParameterStore()
        p = store.add("p", np.ones(2))
        calls = []

        def vjp(g, grads):
            calls.append(grads)
            grads[0] += g * 1e-16
            grads[2] -= g

        root = dc.Tensor(np.array(0.0), (p, dc.constant(np.ones(2)), p), vjp)
        p.grad[...] = 1.0
        dc.backward(root)
        assert len(calls) == 1
        first, middle, last = calls[0]
        assert first is p.grad and middle is None and last is p.grad
        # in parent order (1 + 1e-16) - 1 rounds to 0; the other order would not
        assert p.grad.tolist() == [0.0, 0.0] and 1.0 + (1e-16 - 1.0) != 0.0

    def test_parameter_root_accumulates_into_the_store(self):
        store = dc.ParameterStore()
        root = store.add("root", np.array(2.0))
        store.add("other", np.ones(3))
        dc.backward(root)
        dc.backward(root)
        assert store.grads.tolist() == [2.0, 0.0, 0.0, 0.0]


class TestBatchOps:
    """``segment_mean`` and ``dense`` with a vector weight: the document head."""

    COUNTS = (3, 1, 4)  # a one-row segment between two longer ones

    def test_segment_mean_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        store = make_store_with(rng, x=(sum(self.COUNTS), 5))
        w = rng.normal(size=(len(self.COUNTS), 5))

        def loss():
            return weighted_sum(ops.segment_mean(store["x"], self.COUNTS), w)

        assert dc.check_gradients(loss, store, epsilon=3e-3) <= 1e-4

    @pytest.mark.parametrize("counts", [(7,), COUNTS])
    def test_each_segment_equals_mean_rows_of_its_rows_bitwise(self, counts):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(sum(counts), 5))
        means = ops.segment_mean(dc.constant(rows), counts).value
        for k, (lo, n) in enumerate(zip(np.cumsum((0,) + counts), counts)):
            alone = ops.mean_rows(dc.constant(rows[lo:lo + n])).value
            assert means[k].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("counts", [(3, 0, 5), (), (4, 3), (9,)])
    def test_segment_mean_rejects_bad_counts(self, counts):
        x = dc.constant(np.zeros((8, 2)))
        with pytest.raises(ValueError, match="segment"):
            ops.segment_mean(x, counts)

    def test_dense_vector_weight_scores_each_row_by_its_own_dot(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(9, 40))
        w, b = dc.constant(rng.normal(size=40)), dc.constant(np.array(0.3))
        scores = ops.dense(dc.constant(x), w, b).value
        assert scores.shape == (9,)
        for k in range(9):
            one = ops.dense(dc.constant(x[k:k + 1]), w, b).value
            assert scores[k].tobytes() == one[0].tobytes()
            assert scores[k] == np.dot(x[k], w.value) + 0.3
        with pytest.raises(ValueError, match="dense: shape mismatch"):
            ops.dense(dc.constant(x[0]), w, b)

    def test_dense_structure_margins_equal_matmul_bitwise(self):
        """The model's structure margins: (S, 3) polarity probabilities times
        the (-1, 1, 0) signs, with a zero bias, in values and gradients."""
        rng = np.random.default_rng(17)
        signs = dc.constant(np.array([-1.0, 1.0, 0.0]))
        for _ in range(300):
            logits = rng.normal(size=(int(rng.integers(1, 9)), 3)) * 3.0
            p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            g = rng.normal(size=len(p))
            results = []
            for margins_of in (lambda t: ops.dense(t, signs, dc.constant(0.0)),
                               lambda t: ops.matmul(t, signs)):
                probs = dc.ParameterStore().add("probs", p)
                margins = margins_of(probs)
                dc.backward(weighted_sum(margins, g))
                results.append((margins.value.tobytes(), probs.grad.tobytes()))
            assert results[0] == results[1]

    def test_dense_vector_weight_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        store = make_store_with(rng, x=(4, 6), w=(6,), b=())
        v = rng.normal(size=4)

        def loss():
            return weighted_sum(ops.tanh(ops.dense(store["x"], store["w"], store["b"])), v)

        assert dc.check_gradients(loss, store) <= 1e-6


class TestSoftmaxXent:
    def test_peaked_logits_closed_form(self):
        # independent oracle: log(1 + e^-20) via log1p
        expected = math.log1p(math.exp(-20.0))
        probs, loss = ops.softmax_xent(dc.constant(np.array([10.0, -10.0])), gold=0)
        assert float(loss.value) == pytest.approx(expected, rel=1e-6)
        assert float(loss.value) == pytest.approx(2.06e-9, rel=1e-2)
        assert probs.value.sum() == pytest.approx(1.0)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(5)
        store = make_store_with(rng, z=(7,))
        store.zero_grad()
        probs, loss = ops.softmax_xent(store["z"], gold=3)
        dc.backward(loss)
        onehot = np.zeros(7)
        onehot[3] = 1.0
        np.testing.assert_allclose(store["z"].grad, probs.value - onehot, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        store = make_store_with(rng, z=(5,))

        def loss():
            return ops.softmax_xent(store["z"], gold=2)[1]

        assert dc.check_gradients(loss, store) <= 1e-7

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            ops.softmax_xent(dc.constant(np.zeros(3)), gold=3)


class TestLstm:
    def make_params(self, store, prefix, d_in, d_hidden, seed):
        return dc.init_lstm_params(store, prefix, d_in, d_hidden, np.random.default_rng(seed))

    def test_init_lays_gate_draws_out_in_blocks(self):
        d_in, n = 4, 3
        store = dc.ParameterStore()
        weight, bias = self.make_params(store, "lstm", d_in, n, 0)
        assert store.names == ["lstm.weight", "lstm.bias"]
        assert weight.value.shape == (d_in + n, 4 * n) and bias.value.shape == (4 * n,)
        # the same draws, gate by gate in i/f/o/c order: input weights,
        # recurrent weights, then the bias, which the forget gate pins to 1
        rng = np.random.default_rng(0)
        pieces = {"wx": [], "wh": [], "b": []}
        for gate in "ifoc":
            pieces["wx"].append(rng.uniform(-dc.INIT_SCALE, dc.INIT_SCALE, (d_in, n)))
            pieces["wh"].append(rng.uniform(-dc.INIT_SCALE, dc.INIT_SCALE, (n, n)))
            pieces["b"].append(np.ones(n) if gate == "f"
                               else rng.uniform(-dc.INIT_SCALE, dc.INIT_SCALE, n))
        expected = np.vstack((np.hstack(pieces["wx"]), np.hstack(pieces["wh"])))
        assert weight.value.tobytes() == expected.tobytes()
        assert bias.value.tobytes() == np.concatenate(pieces["b"]).tobytes()
        forget = slice(n, 2 * n)
        assert np.all(bias.value[forget] == 1.0)
        assert np.all(np.abs(np.delete(bias.value, forget)) <= dc.INIT_SCALE)
        assert np.all(np.abs(weight.value) <= dc.INIT_SCALE)

    def test_state_shapes(self):
        store = dc.ParameterStore()
        p = self.make_params(store, "lstm", 4, 3, 1)
        seq = [dc.constant(np.ones(4)) for _ in range(5)]
        states = lstm_encode(seq, p)
        assert len(states) == 5
        assert all(s.value.shape == (3,) for s in states)

    def test_bilstm_final_state_convention(self):
        rng = np.random.default_rng(2)
        store = dc.ParameterStore()
        pf = self.make_params(store, "f", 4, 3, 3)
        pb = self.make_params(store, "b", 4, 3, 4)
        seq = [dc.constant(rng.normal(size=4)) for _ in range(6)]
        steps, final = bilstm_encode(seq, pf, pb)
        assert len(steps) == 6
        assert final.value.shape == (6,)
        fwd_states = lstm_encode(seq, pf)
        bwd_states = lstm_encode(seq, pb, reverse=True)
        np.testing.assert_array_equal(final.value[:3], fwd_states[-1].value)
        np.testing.assert_array_equal(final.value[3:], bwd_states[0].value)
        np.testing.assert_array_equal(steps[2].value[:3], fwd_states[2].value)

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(5)
        store = dc.ParameterStore()
        pf = self.make_params(store, "f", 4, 3, 6)
        pb = self.make_params(store, "b", 4, 3, 7)
        vecs = [rng.normal(size=4) for _ in range(5)]
        seq = [dc.constant(v) for v in vecs]
        seq_rev = [dc.constant(v) for v in reversed(vecs)]
        _, final = bilstm_encode(seq, pf, pb)
        _, final_swapped = bilstm_encode(seq_rev, pb, pf)
        np.testing.assert_allclose(final.value[:3], final_swapped.value[3:], atol=1e-15)
        np.testing.assert_allclose(final.value[3:], final_swapped.value[:3], atol=1e-15)

    def test_empty_sequence_rejected(self):
        store = dc.ParameterStore()
        p = self.make_params(store, "lstm", 4, 3, 8)
        with pytest.raises(ValueError, match="empty"):
            lstm_encode([], p)

    def test_bilstm_gradients(self):
        rng = np.random.default_rng(9)
        store = dc.ParameterStore()
        pf = self.make_params(store, "f", 3, 2, 10)
        pb = self.make_params(store, "b", 3, 2, 11)
        w = store.add("w", rng.uniform(-1, 1, size=4))
        vecs = [rng.normal(size=3) for _ in range(4)]

        def loss():
            seq = [dc.constant(v) for v in vecs]
            _, final = bilstm_encode(seq, pf, pb)
            return ops.matmul(final, w)

        assert dc.check_gradients(loss, store, epsilon=1e-4) <= 1e-4


def weighted_sum(t: dc.Tensor, w: np.ndarray) -> dc.Tensor:
    """sum(t * w) as a scalar tape node."""
    return ops.node(np.sum(t.value * w), (t,), (lambda g, acc: np.add(acc, g * w, out=acc),))


class TestLstmSequence:
    """The fused nodes against the per-step reference path: the
    per-direction ``lstm_sequence`` of the tests and ``bilstm_batch``."""

    LENGTHS = (5, 1, 3)  # padded to 5 steps, with a 1-token sequence

    def make_case(self, seed, d_in=4, d_hidden=3, vocab=9):
        rng = np.random.default_rng(seed)
        store = dc.ParameterStore()
        table = store.add("table", rng.normal(size=(vocab, d_in)))
        pf = dc.init_lstm_params(store, "f", d_in, d_hidden, rng)
        pb = dc.init_lstm_params(store, "b", d_in, d_hidden, rng)
        for _, t in store:  # leave the near-linear init regime
            t.value[...] = rng.uniform(-1.0, 1.0, size=t.value.shape)
        ids = rng.integers(0, vocab, size=(len(self.LENGTHS), max(self.LENGTHS)))
        return rng, store, table, pf, pb, ids

    def grads_of(self, store, loss):
        store.zero_grad()
        dc.backward(loss)
        return {name: t.grad.copy() for name, t in store}

    def assert_grads_close(self, fused, reference):
        for name in reference:
            np.testing.assert_allclose(fused[name], reference[name], rtol=0, atol=1e-10,
                                       err_msg=name)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_direction_matches_reference(self, reverse):
        rng, store, table, pf, _, ids = self.make_case(20 + reverse)
        weights = rng.normal(size=ids.shape + (3,))
        states = lstm_sequence(dc.gather(table, ids), pf, self.LENGTHS, reverse=reverse)
        assert states.parents[1:] == pf and len(states.parents) == 3
        valid = np.arange(ids.shape[1]) < np.array(self.LENGTHS)[:, None]
        fused_loss = weighted_sum(states, weights * valid[..., None])
        fused = self.grads_of(store, fused_loss)

        ref_loss = None
        for b, length in enumerate(self.LENGTHS):
            seq = [ops.row(table, i) for i in ids[b, :length]]
            ref_states = lstm_encode(seq, pf, reverse=reverse)
            for t, h in enumerate(ref_states):
                np.testing.assert_allclose(states.value[b, t], h.value, rtol=0, atol=1e-10)
                term = weighted_sum(h, weights[b, t])
                ref_loss = term if ref_loss is None else ops.add(ref_loss, term)
            # padding: the forward scan carries its last state, the reverse
            # scan has not started yet
            for t in range(length, ids.shape[1]):
                expected = np.zeros(3) if reverse else ref_states[-1].value
                np.testing.assert_allclose(states.value[b, t], expected, rtol=0, atol=1e-10)
        assert float(fused_loss.value) == pytest.approx(float(ref_loss.value), abs=1e-10)
        self.assert_grads_close(fused, self.grads_of(store, ref_loss))

    def test_bilstm_batch_matches_reference(self):
        rng, store, table, pf, pb, ids = self.make_case(30)
        valid = np.arange(ids.shape[1]) < np.array(self.LENGTHS)[:, None]
        step_w = rng.normal(size=ids.shape + (6,))[valid]  # one row per packed step
        final_w = rng.normal(size=(len(self.LENGTHS), 6))
        x, layout = dc.gather(table, ids[valid]), dc.ScanLayout(self.LENGTHS)
        steps = dc.bilstm_batch(x, pf, pb, layout)
        final = dc.bilstm_batch(x, pf, pb, layout, final_only=True)
        assert steps.value.shape == (sum(self.LENGTHS), 6)
        fused_loss = ops.add(weighted_sum(steps, step_w), weighted_sum(final, final_w))
        fused = self.grads_of(store, fused_loss)

        ref_loss = None
        start = 0
        for b, length in enumerate(self.LENGTHS):
            seq = [ops.row(table, i) for i in ids[b, :length]]
            ref_steps, ref_final = bilstm_encode(seq, pf, pb)
            np.testing.assert_allclose(final.value[b], ref_final.value, rtol=0, atol=1e-10)
            terms = [weighted_sum(ref_final, final_w[b])]
            for t, s in enumerate(ref_steps):
                np.testing.assert_allclose(steps.value[start + t], s.value, rtol=0, atol=1e-10)
                terms.append(weighted_sum(s, step_w[start + t]))
            for term in terms:
                ref_loss = term if ref_loss is None else ops.add(ref_loss, term)
            start += length
        assert float(fused_loss.value) == pytest.approx(float(ref_loss.value), abs=1e-10)
        self.assert_grads_close(fused, self.grads_of(store, ref_loss))

    @pytest.mark.parametrize("length", [1, 4])
    def test_single_sequence_matches_reference(self, length):
        """The sentence-level layout of one document: a batch of one
        sequence, down to a one-sentence document."""
        rng = np.random.default_rng(40 + length)
        store = dc.ParameterStore()
        x = store.add("x", rng.normal(size=(length, 4)))
        pf = dc.init_lstm_params(store, "f", 4, 3, rng)
        pb = dc.init_lstm_params(store, "b", 4, 3, rng)
        step_w = rng.normal(size=(length, 6))
        final_w = rng.normal(size=(1, 6))
        steps = dc.bilstm_batch(x, pf, pb, dc.ScanLayout([length]))
        final = dc.bilstm_batch(x, pf, pb, dc.ScanLayout([length]), final_only=True)
        assert steps.value.shape == (length, 6) and final.value.shape == (1, 6)
        fused_loss = ops.add(weighted_sum(steps, step_w), weighted_sum(final, final_w))
        fused = self.grads_of(store, fused_loss)

        ref_steps, ref_final = bilstm_encode([ops.row(x, t) for t in range(length)], pf, pb)
        np.testing.assert_allclose(final.value[0], ref_final.value, rtol=0, atol=1e-10)
        ref_loss = weighted_sum(ref_final, final_w[0])
        for t, s in enumerate(ref_steps):
            np.testing.assert_allclose(steps.value[t], s.value, rtol=0, atol=1e-10)
            ref_loss = ops.add(ref_loss, weighted_sum(s, step_w[t]))
        assert float(fused_loss.value) == pytest.approx(float(ref_loss.value), abs=1e-10)
        self.assert_grads_close(fused, self.grads_of(store, ref_loss))

    def test_bad_lengths_rejected(self):
        _, _, table, pf, pb, ids = self.make_case(60)
        x = dc.gather(table, ids[:, :3].reshape(-1))  # 9 packed rows
        with pytest.raises(ValueError, match="empty sequence"):
            dc.ScanLayout([5, 0, 4])
        with pytest.raises(ValueError, match="empty sequence"):
            dc.ScanLayout([5, -1, 5])
        with pytest.raises(ValueError, match="sum to 10, not to the 9"):
            dc.bilstm_batch(x, pf, pb, dc.ScanLayout([6, 1, 3]))
        with pytest.raises(ValueError, match="sum to 8, not to the 9"):
            dc.bilstm_batch(x, pf, pb, dc.ScanLayout([5, 1, 2]))
        with pytest.raises(ValueError, match="empty batch"):
            dc.ScanLayout([])
        with pytest.raises(ValueError, match="packed"):
            dc.bilstm_batch(dc.gather(table, ids), pf, pb, dc.ScanLayout(self.LENGTHS))


@st.composite
def bilstm_cases(draw):
    """Sequence lengths (a batch of one in half the cases, else ragged or
    all equal), input width, hidden width and a seed."""
    batch = 1 if draw(st.booleans()) else draw(st.integers(2, 6))
    steps = draw(st.integers(1, 8)) if draw(st.booleans()) else 1
    if draw(st.booleans()):  # ragged
        lengths = draw(st.lists(st.integers(1, steps), min_size=batch, max_size=batch))
    else:
        lengths = [steps] * batch
    return lengths, draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(
        st.integers(0, 2**32 - 1))


class TestFusedBilstm:
    """``bilstm_batch`` runs both directions in one scan over packed rows; a
    pair of per-direction nodes over the padded batch must give the same
    bits, both for the per-step states and for the final-only node."""

    @settings(max_examples=150, deadline=None)
    @given(bilstm_cases())
    def test_equals_per_direction_pair_bitwise(self, case):
        lengths, width, n, seed = case
        rng = np.random.default_rng(seed)
        store = dc.ParameterStore()
        x = store.add("x", rng.normal(size=(sum(lengths), width)))
        pf = dc.init_lstm_params(store, "f", width, n, rng)
        pb = dc.init_lstm_params(store, "b", width, n, rng)
        for _, t in store:  # leave the near-linear init regime
            t.value[...] = rng.uniform(-1.0, 1.0, size=t.value.shape)
        step_w = rng.normal(size=(sum(lengths), 2 * n))
        final_w = rng.normal(size=(len(lengths), 2 * n))
        # the pair's (B, T, d) batch: padded steps read row 0 and weigh nothing
        real = np.arange(max(lengths)) < np.array(lengths)[:, None]
        padded_ids = np.zeros(real.shape, dtype=np.intp)
        padded_ids[real] = np.arange(sum(lengths))
        padded_w = np.zeros(real.shape + (2 * n,))
        padded_w[real] = step_w

        layout = dc.ScanLayout(lengths)
        for k, output in enumerate(("steps", "final")):
            store.zero_grad()
            node = dc.bilstm_batch(x, pf, pb, layout, final_only=output == "final")
            dc.backward(weighted_sum(node, (step_w, final_w)[k]))
            fused = [node.value] + [t.grad.copy() for _, t in store]
            store.zero_grad()
            node = bilstm_pair(dc.gather(x, padded_ids), pf, pb, lengths)[k]
            dc.backward(weighted_sum(node, (padded_w, final_w)[k]))
            pair = [node.value[real] if k == 0 else node.value] + [t.grad.copy() for _, t in store]
            for name, a, b in zip([output] + store.names, fused, pair):
                assert a.shape == b.shape and np.array_equal(a, b), (output, name)

    def test_is_one_node_over_both_directions(self):
        rng = np.random.default_rng(70)
        store = dc.ParameterStore()
        pf = dc.init_lstm_params(store, "f", 4, 3, rng)
        pb = dc.init_lstm_params(store, "b", 4, 3, rng)
        x = dc.constant(rng.normal(size=(7, 4)))
        layout = dc.ScanLayout([5, 2])
        steps = dc.bilstm_batch(x, pf, pb, layout)
        final = dc.bilstm_batch(x, pf, pb, layout, final_only=True)
        assert steps.parents == final.parents == (x, *pf, *pb)
        assert steps.value.shape == (7, 6) and final.value.shape == (2, 6)


class TestAdam:
    def test_quadratic_descent(self):
        store = dc.ParameterStore()
        x = store.add("x", np.array([3.0, -2.0]))
        target = dc.constant(np.array([1.0, 1.0]))
        opt = dc.Adam(store, lr=0.05, clip_norm=5.0)
        first = None
        for _ in range(400):
            store.zero_grad()
            diff = ops.sub(x, target)
            loss = ops.matmul(diff, diff)
            if first is None:
                first = float(loss.value)
            dc.backward(loss)
            opt.step()
        final = float(ops.matmul(ops.sub(x, target), ops.sub(x, target)).value)
        assert final < 1e-3 < first

    def test_clipping_bounds_update(self):
        store = dc.ParameterStore()
        x = store.add("x", np.zeros(2))
        store.zero_grad()
        x.grad[:] = np.array([3e6, 4e6])  # norm 5e6, clipped to 5
        before = x.value.copy()
        dc.Adam(store, lr=1.0, clip_norm=5.0).step()
        # first Adam step moves by at most lr per coordinate
        assert np.all(np.abs(x.value - before) <= 1.0 + 1e-9)

    def test_duplicate_parameter_rejected(self):
        store = dc.ParameterStore()
        store.add("x", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("x", np.zeros(2))

    @staticmethod
    def random_store(rng):
        """15 tensors of the model's ranks (a 0-d one last), filled at random."""
        store = dc.ParameterStore()
        for k in range(14):
            shape = tuple(int(s) for s in rng.integers(1, 12, size=k % 3))
            store.add(f"t{k}", rng.normal(size=shape))
        store.add("scalar", rng.normal(size=()))
        return store

    def test_grad_norm_equals_per_tensor_sum_bitwise(self):
        rng = np.random.default_rng(80)
        for _ in range(200):
            store = self.random_store(rng)
            for _, t in store:
                t.grad[...] = rng.normal(size=t.grad.shape) * 10.0 ** rng.integers(-3, 4)
            expected = 0.0
            for _, t in store:
                expected += float(np.sum(t.grad * t.grad))
            assert dc.Adam(store).step() == math.sqrt(expected)

    @pytest.mark.parametrize("clip_norm", [0.5, 1e9])
    def test_flat_steps_equal_per_tensor_adam_bitwise(self, clip_norm):
        """50 steps against the per-tensor optimizer, with every step clipped
        (0.5) and with none clipped (1e9)."""
        rng = np.random.default_rng(81)
        flat_store = self.random_store(rng)
        ref_store = dc.ParameterStore()
        for name, t in flat_store:
            ref_store.add(name, t.value.copy())
        flat = dc.Adam(flat_store, lr=0.01, clip_norm=clip_norm)
        ref = ops.Adam(ref_store, lr=0.01, clip_norm=clip_norm)
        for _ in range(50):
            for (_, a), (_, b) in zip(flat_store, ref_store):
                a.grad[...] = b.grad[...] = rng.normal(size=a.grad.shape)
            norm = flat.step()
            assert norm == ref.step()
            assert (norm > clip_norm) == (clip_norm == 0.5)
        for (name, a), (_, b) in zip(flat_store, ref_store):
            assert a.value.tobytes() == b.value.tobytes(), name

    def test_step_allocates_nothing_the_size_of_the_store(self):
        import tracemalloc

        store = dc.ParameterStore()
        store.add("big", np.zeros(200_000))
        store.add("small", np.zeros(3))
        store.grads[:] = 1.0
        opt = dc.Adam(store, lr=0.01, clip_norm=1.0)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * store.n_values() / 4

    def test_tensors_are_views_of_the_flat_buffers(self):
        rng = np.random.default_rng(82)
        store = self.random_store(rng)  # grows the buffers several times
        values = np.concatenate([t.value.reshape(-1) for _, t in store])
        assert store.values.tobytes() == values.tobytes()
        for _, t in store:
            assert np.shares_memory(t.value, store.values)
            assert np.shares_memory(t.grad, store.grads)
        store.grads[:] = 1.0
        store.zero_grad()
        assert all(not t.grad.any() for _, t in store)
