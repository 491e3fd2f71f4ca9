"""The axiom laws, their one evaluator and the checkers built on it.

``check_ternary_associativity`` is compared with a copy of its earlier
version (two einsums per exhaustive slice, two gathered einsums per sampled
chunk).  The evaluator sums over q by BLAS matrix products, in another order
than einsum: reports on exactly representable algebras (0/1 tensors, small
integers) are bitwise equal, and on random real or complex tensors they lie
within the rounding bound of ``conftest._law_bound``.
Both checkers are also compared with a copy of the evaluator before its
work followed the structure tensors' nonzeros (whole exhaustive slices, and
one product per key for every sampled tuple with a live row): reports are
bitwise equal on builder tensors, on the benchmark's axiom checks and on
dense tensors, and within the rounding bound on tensors that mix rows of
one inexact nonzero, of several and of none.
Exhaustive checks whose first tensors hold at most one nonzero per row join
the nonzeros on q instead of walking slices: their reports are bitwise
those of whole slices on builder tensors, on integer tensors and on inexact
real ones, and within the rounding bound on inexact complex ones, whose
BLAS products may fuse a multiply and an add.  Spies count the joins'
terms, their runs of lead values and their memory against the slices'.
Law values that overflow fail every check with an infinite residual at
their first tuple.
``verify_identity_and_reduce`` and the rescale ascent are compared with the
einsums they used before the contraction kernel took them over.
"""

import itertools
import random
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ternstab as ts
from ternstab import algebra as algebra_mod
from ternstab import module as module_mod
from ternstab.algebra import (
    _ASSOC_LAW,
    _law_residuals,
    _Plan,
    _law_values,
    _random_vector,
    ternary_product,
)
from ternstab.module import _CHAINS


def _random_array(rng, shape, field):
    out = rng.standard_normal(shape)
    if field == "complex":
        out = out + 1j * rng.standard_normal(shape)
    return out


def _integer_array(rng, shape, field):
    """Entries in -2..2 (complex: integer real and imaginary parts), so every
    sum over q is exact in any order."""
    out = rng.integers(-2, 3, shape).astype(np.float64)
    if field == "complex":
        out = out + 1j * rng.integers(-2, 3, shape)
    return out


def _random_algebra(d, field, seed, scale=1.0, draw=_random_array):
    rng = np.random.default_rng(seed)
    return ts.TernaryAlgebra(d, field, scale * draw(rng, (d,) * 4, field))


def _random_module(alg, dx, seed, draw=_random_array):
    rng = np.random.default_rng(seed)
    da = alg.dim
    return ts.TernaryModule(
        algebra=alg,
        dim=dx,
        product_xab=draw(rng, (dx, da, da, dx), alg.field),
        product_axb=draw(rng, (da, dx, da, dx), alg.field),
        product_abx=draw(rng, (da, da, dx, dx), alg.field),
    )


def _assoc_norms(alg):
    """The associativity residual at every basis 5-tuple, by einsum."""
    t = alg.structure
    return alg.norms_of(np.einsum("abcq,qder->abcder", t, t) - np.einsum("bcdq,aqer->abcder", t, t))


def _reference_associativity(alg, tol, budget=1_000_000, seed=0, samples=None):
    """The associativity check before the shared law evaluator."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    d = alg.dim
    t = alg.structure
    total = d**5
    worst = (0, 0, 0, 0, 0)
    max_res = 0.0
    if total <= budget and samples is None:
        # chunk over the first index: d^4 x d residual block per slice
        for i in range(d):
            lhs = np.einsum("jkq,qlmr->jklmr", t[i], t)
            rhs = np.einsum("jklq,qmr->jklmr", t, t[i])
            norms = alg.norms_of(lhs - rhs)
            pos = np.unravel_index(int(np.argmax(norms)), norms.shape)
            if norms[pos] > max_res:
                max_res = float(norms[pos])
                worst = (i, *map(int, pos))
        checked = total
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        checked = samples if samples is not None else budget
        done = 0
        while done < checked:
            n = min(algebra_mod._TUPLE_CHUNK, checked - done)
            idx = rng.integers(0, d, size=(5, n))
            i, j, k, l, m = idx
            # t[:, l, m, :] has adjacent advanced axes -> (q, t, r);
            # t[i, :, m, :] has split advanced axes -> (t, q, r)
            lhs = np.einsum("tq,qtr->tr", t[i, j, k, :], t[:, l, m, :])
            rhs = np.einsum("tq,tqr->tr", t[j, k, l, :], t[i, :, m, :])
            norms = alg.norms_of(lhs - rhs)
            pos = int(np.argmax(norms))
            if norms[pos] > max_res:
                max_res = float(norms[pos])
                worst = tuple(int(idx[s, pos]) for s in range(5))
            done += n
        exhaustive = False
    # a check of no tuples does not pass
    passed = checked > 0 and max_res <= tol
    return ts.AssocReport(max_res, float(tol), passed, worst, checked, exhaustive)


def _reference_law_values(spec, p1, p2, where):
    """``algebra._law_values`` before its work followed the nonzeros: a
    whole slice from one product, and sampled tuples with a live row of the
    first operand through one product per key."""
    t1, t2 = p1.tensor, p2.tensor
    live_rows = (t1 != 0).any(axis=-1)
    ins, out = spec.split("->")
    first, second = ins.split(",")
    if np.ndim(where) == 0:
        right, rest = np.moveaxis(t2, second.index("q"), 0), second.replace("q", "")
        lead = out[0]
        if lead in first:
            t1 = t1[(slice(None),) * first.index(lead) + (where,)]
            first = first.replace(lead, "")
        else:
            right = right[(slice(None),) * (1 + rest.index(lead)) + (where,)]
            rest = rest.replace(lead, "")
        vals = t1.reshape(-1, t1.shape[-1]) @ right.reshape(len(right), -1)
        vals = vals.reshape(t1.shape[:-1] + right.shape[1:])
        return vals.transpose([(first[:-1] + rest).index(s) for s in out[1:]])
    idx = dict(zip(out, where))
    right = np.moveaxis(t2, second.index("q"), -2)
    table = right.reshape(-1, *right.shape[-2:])
    key = np.ravel_multi_index([idx[s] for s in second[:-1] if s != "q"], right.shape[:-2])
    order = np.argsort(key.astype(np.min_scalar_type(len(table) - 1)), kind="stable")
    rows = np.ravel_multi_index([idx[s] for s in first[:-1]], t1.shape[:-1])
    if not live_rows.all():
        live = live_rows.reshape(-1)[rows]
        order, key = order[live[order]], key[live]
    left = np.take(t1.reshape(-1, t1.shape[-1]), rows[order], axis=0)
    stops = np.cumsum(np.bincount(key, minlength=len(table))).tolist()
    vals = (np.empty if len(order) == len(rows) else np.zeros)(
        (len(rows), table.shape[-1]), np.result_type(t1, t2))
    for k, (start, stop) in enumerate(itertools.pairwise([0, *stops])):
        if start < stop:
            vals[order[start:stop]] = left[start:stop] @ table[k]
    return vals


def _reference_law_residuals(laws, plans, norms_of, chunks):
    """``algebra._law_residuals`` before its work followed the nonzeros."""
    found = dict.fromkeys(laws, (0.0, None))
    for where in chunks:
        for name, exprs in laws.items():
            vals = (_reference_law_values(spec, plans[a], plans[b], where)
                    for spec, (a, b) in exprs)
            norms = np.max([norms_of(u - v) for u, v in itertools.pairwise(vals)], axis=0)
            pos = np.unravel_index(int(np.argmax(norms)), norms.shape)
            if norms[pos] > found[name][0]:
                at = (where, *pos) if np.ndim(where) == 0 else where[:, pos[0]]
                found[name] = (float(norms[pos]), tuple(map(int, at)))
    return found


def _with_reference(monkeypatch, check, *args, **kwargs):
    """``check``'s report now and with the reference evaluator."""
    got = check(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(algebra_mod, "_law_residuals", _reference_law_residuals)
        mp.setattr(module_mod, "_law_residuals", _reference_law_residuals)
        want = check(*args, **kwargs)
    return got, want


def _algebras(field):
    perturbed = ts.trivial_matrix_algebra(2, field)
    bump = 1e-6 * _random_array(np.random.default_rng(3), perturbed.structure.shape, field)
    return {
        "matrix2": ts.trivial_matrix_algebra(2, field),
        "oddpoly7": ts.odd_polynomial_algebra(7, field),
        "perturbed-matrix2": replace(perturbed, structure=perturbed.structure + bump),
        "random3": _random_algebra(3, field, 1),
        "random5": _random_algebra(5, field, 2),
        "scalar": ts.TernaryAlgebra(1, field, np.full((1, 1, 1, 1), 0.5)),
        "integer4": _random_algebra(4, field, 11, draw=_integer_array),
        "zero": ts.TernaryAlgebra(3, field, np.zeros((3,) * 4)),
    }


# algebras whose law values are exact, so that any summation order gives their bits
EXACT = ("matrix2", "oddpoly7", "scalar", "integer4", "zero")


ASSOC_RUNS = {
    "exhaustive": {},
    "multi-chunk": {"samples": 2 * algebra_mod._TUPLE_CHUNK + 17, "seed": 3},
    "budget-forced": {"budget": 100, "seed": 4},
    "no-samples": {"samples": 0},
    "few-samples": {"samples": 7, "seed": 5},
}


class TestAssociativityMatchesEarlierCode:
    @pytest.mark.parametrize("run", list(ASSOC_RUNS))
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_report_is_bitwise_equal(self, field, run):
        kwargs = ASSOC_RUNS[run]
        for name, alg in _algebras(field).items():
            if name in EXACT:
                got = ts.check_ternary_associativity(alg, 1e-9, **kwargs)
                want = _reference_associativity(alg, 1e-9, **kwargs)
                assert repr(got) == repr(want), name

    @pytest.mark.parametrize("run", list(ASSOC_RUNS))
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_report_is_within_the_rounding_bound(self, field, run, law_close):
        kwargs = ASSOC_RUNS[run]
        for name, alg in _algebras(field).items():
            if name in EXACT:
                continue
            got = ts.check_ternary_associativity(alg, 1e-9, **kwargs)
            want = _reference_associativity(alg, 1e-9, **kwargs)
            law_close((got.max_residual, got.worst), (want.max_residual, want.worst),
                      _ASSOC_LAW["assoc"], {"T": alg.structure}, _assoc_norms(alg))
            assert repr(replace(got, max_residual=0.0, worst=None)) == repr(
                replace(want, max_residual=0.0, worst=None)), name

    def test_exhaustive_and_sampled_agree_on_a_violation(self, law_close):
        alg = _algebras("real")["random3"]
        exhaustive = ts.check_ternary_associativity(alg, 0.0)
        # every basis tuple is drawn with 3**5 * 40 samples, so the maximum is hit
        sampled = ts.check_ternary_associativity(alg, 0.0, samples=3**5 * 40)
        assert exhaustive.exhaustive and not sampled.exhaustive
        law_close((sampled.max_residual, sampled.worst),
                  (exhaustive.max_residual, exhaustive.worst),
                  _ASSOC_LAW["assoc"], {"T": alg.structure}, _assoc_norms(alg))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_exhaustive_and_sampled_agree_bitwise_on_integers(self, field):
        alg = _random_algebra(3, field, 12, draw=_integer_array)
        exhaustive = ts.check_ternary_associativity(alg, 0.0)
        sampled = ts.check_ternary_associativity(alg, 0.0, samples=3**5 * 40)
        assert exhaustive.max_residual > 0 and not sampled.exhaustive
        assert (sampled.max_residual, sampled.worst) == (exhaustive.max_residual, exhaustive.worst)
        # ties resolve to the first tuple in C order, as in the einsum residuals
        norms = _assoc_norms(alg)
        assert exhaustive.worst == np.unravel_index(int(np.argmax(norms)), norms.shape)


def _law_tensors(field, draw=_random_array):
    alg = _random_algebra(3, field, 7, draw=draw)
    mod = _random_module(alg, 2, 8, draw=draw)
    return alg, mod, {"T": alg.structure, "TA": alg.structure, "Pxab": mod.product_xab,
                      "Paxb": mod.product_axb, "Pabx": mod.product_abx}


def _plans(tensors):
    return {name: _Plan.of(t) for name, t in tensors.items()}


EXPRESSIONS = [expr for law in (_ASSOC_LAW, _CHAINS) for exprs in law.values() for expr in exprs]


class TestLawValues:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("spec, names", EXPRESSIONS, ids=[s for s, _ in EXPRESSIONS])
    def test_slice_is_the_full_einsum_slice(self, spec, names, field, entry_bound):
        for draw in (_integer_array, _random_array):
            _, _, tensors = _law_tensors(field, draw)
            operands = [tensors[n] for n in names]
            full = np.einsum(spec, *operands)
            # both sums lie within the entry bound of the exact value
            tol = 2 * entry_bound(spec, *operands)
            for where in range(full.shape[0]):
                got = _law_values(spec, *map(_Plan.of, operands), where)
                assert got.shape == full.shape[1:]
                if draw is _integer_array:
                    np.testing.assert_array_equal(got, full[where])
                else:
                    assert np.all(abs(got - full[where]) <= tol[where])

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("spec, names", EXPRESSIONS, ids=[s for s, _ in EXPRESSIONS])
    def test_gathered_tuples_are_full_einsum_entries(self, spec, names, field):
        _, _, tensors = _law_tensors(field)
        full = np.einsum(spec, *(tensors[n] for n in names))
        rng = np.random.default_rng(9)
        where = np.stack([rng.integers(0, size, 40) for size in full.shape[:-1]])
        got = _law_values(spec, *(_Plan.of(tensors[n]) for n in names), where)
        assert got.shape == (40, full.shape[-1])
        np.testing.assert_allclose(got, full[tuple(where)], rtol=1e-14, atol=1e-14)

    def test_slice_is_one_product_of_the_operands(self):
        # the fixed letter sits in the second operand, one axis in: the first
        # operand enters as a view of its rows over q, the second as its
        # slice with q first, and their one matrix product is the slice
        _, _, tensors = _law_tensors("real", _integer_array)
        spec = "bcdq,xaqr->abcdxr"
        seen = []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = [np.asarray(v) for v in inputs]
                seen.append((ufunc, plain))
                return getattr(ufunc, method)(*plain, **kwargs)

        plans = [_Plan.of(tensors[n].view(Spy)) for n in ("TA", "Pxab")]
        seen.clear()
        got = _law_values(spec, *plans, 1)
        [(ufunc, (left, right))] = seen
        assert ufunc is np.matmul
        assert left.shape == (27, 3) and np.shares_memory(left, tensors["TA"])
        np.testing.assert_array_equal(right, np.moveaxis(tensors["Pxab"][:, 1], 1, 0).reshape(3, 4))
        np.testing.assert_array_equal(got, np.einsum(spec, tensors["TA"], tensors["Pxab"])[1])


def _reference_sampled_values(spec, t1, t2, where):
    """The sampled branch of ``_law_values`` before its plan: every tuple
    through the products."""
    ins, out = spec.split("->")
    first, second = ins.split(",")
    idx = dict(zip(out, where))
    right = np.moveaxis(t2, second.index("q"), -2)
    table = right.reshape(-1, *right.shape[-2:])
    key = np.ravel_multi_index([idx[s] for s in second[:-1] if s != "q"], right.shape[:-2])
    order = np.argsort(key.astype(np.min_scalar_type(len(table) - 1)), kind="stable")
    rows = np.ravel_multi_index([idx[s] for s in first[:-1]], t1.shape[:-1])
    left = np.take(t1.reshape(-1, t1.shape[-1]), rows[order], axis=0)
    stops = np.cumsum(np.bincount(key, minlength=len(table))).tolist()
    vals = np.empty((len(key), table.shape[-1]), np.result_type(t1, t2))
    for k, (start, stop) in enumerate(itertools.pairwise([0, *stops])):
        if start < stop:
            vals[order[start:stop]] = left[start:stop] @ table[k]
    return vals


def _square_tensors(field):
    """Builder tensors, a dense one, one with a zero ``(k, l)`` slab, the
    zero tensor, and one with zero rows ``T[i, j, k, :]`` between random
    ones."""
    rng = np.random.default_rng(16)
    slab, rows = _random_array(rng, (4,) * 4, field), _random_array(rng, (4,) * 4, field)
    slab[:, :, 1, 3] = 0
    rows[rng.random((4, 4, 4)) < 0.5] = 0
    return {
        "trivial m=2": ts.trivial_matrix_algebra(2, field).structure,
        "trivial m=3": ts.trivial_matrix_algebra(3, field).structure,
        "odd-poly cap=13": ts.odd_polynomial_algebra(13, field).structure,
        "dense": _random_array(rng, (5,) * 4, field),
        "zero slab": slab,
        "zero": np.zeros((3,) * 4, dtype=slab.dtype),
        "zero rows": rows,
    }


def _mixed_tensor(rng, shape, field):
    """A random tensor whose rows ``T[i, j, k, :]`` hold one nonzero, several
    or none, in about equal shares, and with dead columns: no row reaches
    the last output coordinate, and index 1 of the third slot is zero."""
    t = _random_array(rng, shape, field)
    share = rng.random(shape[:3])
    t[share < 1 / 3] = 0
    one = share > 2 / 3
    keep = np.zeros(shape, bool)
    keep[one, rng.integers(0, shape[3], int(one.sum()))] = True
    t[one] *= keep[one]
    t[..., -1] = 0
    t[:, :, 1] = 0
    return t


class TestLiveRows:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("spec, names", EXPRESSIONS, ids=[s for s, _ in EXPRESSIONS])
    def test_sampled_values_match_the_earlier_evaluator(self, spec, names, field, entry_bound):
        # every tensor name of the laws stands for one square tensor here; the
        # draws give keys of no tuple, of one (a gemv) and of many (a gemm)
        rng = np.random.default_rng(17)
        for name, t in _square_tensors(field).items():
            plan = _Plan.of(t)
            d = len(t)
            for n in (1, 40, 3 * d**5):
                where = rng.integers(0, d, size=(5, n))
                got = _law_values(spec, plan, plan, where)
                want = _reference_sampled_values(spec, t, t, where)
                if name == "zero rows":
                    # the products of a key lose the zero rows, and one that
                    # keeps a single row runs as gemv, not gemm
                    tol = 2 * entry_bound(spec, t, t)[tuple(where)]
                    assert got.shape == want.shape and np.all(abs(got - want) <= tol)
                else:
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_dead_tuples_skip_the_products(self, monkeypatch, entry_bound):
        # only tuples whose row of the first operand holds several nonzeros
        # are gathered for the products; a row of one nonzero v at q takes v
        # times row q of its key's table, a zero row gives zeros
        rng = np.random.default_rng(18)
        t = _mixed_tensor(rng, (4,) * 4, "complex")
        plan = _Plan.of(t)
        where = rng.integers(0, 4, size=(5, 400))
        count = np.count_nonzero(t, axis=-1)[tuple(where[:3])]
        assert (count == 0).any() and (count == 1).any() and (count > 1).any()
        multiplied = []
        real_take = np.take

        def counting_take(a, indices, *args, **kwargs):
            multiplied.append(len(indices))
            return real_take(a, indices, *args, **kwargs)

        spec = "abcq,qder->abcder"
        monkeypatch.setattr(np, "take", counting_take)
        got = _law_values(spec, plan, plan, where)
        assert multiplied == [int((count > 1).sum())]
        assert not got[count == 0].any()
        one = np.flatnonzero(count == 1)
        i, j, k, d, e = where[:, one]
        q = np.argmax(t[i, j, k] != 0, axis=-1)
        np.testing.assert_array_equal(got[one], t[i, j, k, q][:, None] * t[q, d, e])
        want = _reference_sampled_values(spec, t, t, where)
        assert np.all(abs(got - want) <= 2 * entry_bound(spec, t, t)[tuple(where)])
        # a builder's rows hold one nonzero each: no tuple is multiplied
        multiplied.clear()
        builder = _Plan.of(ts.trivial_matrix_algebra(2).structure)
        _law_values(spec, builder, builder, where)
        assert multiplied == []


class TestLawResiduals:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_exhaustive_maximum_and_tuple(self, field, law_close):
        for draw in (_integer_array, _random_array):
            alg, mod, tensors = _law_tensors(field, draw)
            found = _law_residuals(_CHAINS, _plans(tensors), mod.norms_of, range(alg.dim))
            for name, exprs in _CHAINS.items():
                vals = [np.einsum(spec, *(tensors[n] for n in names)) for spec, names in exprs]
                norms = np.maximum(mod.norms_of(vals[0] - vals[1]),
                                   mod.norms_of(vals[1] - vals[2]))
                worst = np.unravel_index(int(np.argmax(norms)), norms.shape)
                want = (float(norms[worst]), tuple(map(int, worst)))
                if draw is _integer_array:
                    assert found[name] == want, name
                else:
                    law_close(found[name], want, exprs, tensors, norms)

    def test_sampled_chunks_give_the_tuple(self):
        alg, _, tensors = _law_tensors("real")
        rng = np.random.default_rng(4)
        where = rng.integers(0, alg.dim, size=(5, 50))
        chunks = [where[:, :20], where[:, 20:]]
        residual, worst = _law_residuals(_ASSOC_LAW, _plans(tensors), alg.norms_of,
                                         chunks)["assoc"]
        vals = [np.einsum(s, tensors["T"], tensors["T"]) for s, _ in _ASSOC_LAW["assoc"]]
        norms = alg.norms_of(vals[0] - vals[1])[tuple(where)]
        assert residual == pytest.approx(norms.max(), rel=1e-14)
        assert worst == tuple(map(int, where[:, int(np.argmax(norms))]))

    def test_zero_differences_keep_no_tuple(self):
        alg = ts.trivial_matrix_algebra(2)
        found = _law_residuals(_ASSOC_LAW, {"T": alg._plan}, alg.norms_of, range(4))
        assert found == {"assoc": (0.0, None)}
        report = ts.check_ternary_associativity(alg, 0.0)
        assert report.worst == (0, 0, 0, 0, 0) and report.passed


class TestModuleChunks:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_chunk_size_does_not_change_the_report(self, field, monkeypatch, law_close):
        # a chunk's tuples take one product per key, so the chunk size moves
        # which rows share a product (one row takes gemv, not gemm); exact
        # sums keep their bits, others stay within the rounding bound
        kwargs = dict(samples=10, seed=2, budget=300)
        for draw in (_integer_array, _random_array):
            alg = _random_algebra(3, field, 5, draw=draw)
            mod = _random_module(alg, 4, 6, draw=draw)
            whole = ts.check_module_axioms(mod, 1e-9, **kwargs)
            with monkeypatch.context() as mp:
                mp.setattr(module_mod, "_TUPLE_CHUNK", 7)
                small = ts.check_module_axioms(mod, 1e-9, **kwargs)
            if draw is _integer_array:
                assert repr(small) == repr(whole)
                continue
            tensors = {"TA": alg.structure, "Pxab": mod.product_xab,
                       "Paxb": mod.product_axb, "Pabx": mod.product_abx}
            for name, exprs in _CHAINS.items():
                law_close((small.chain_residuals[name], None),
                          (whole.chain_residuals[name], None), exprs, tensors)
            assert small.norm_violation == whole.norm_violation


class TestNoEinsum:
    def test_checkers_run_without_einsum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        alg = _random_algebra(3, "complex", 5)
        mod = _random_module(alg, 2, 6)
        monkeypatch.setattr(np, "einsum", refuse)
        assert ts.check_ternary_associativity(alg, 1e-9).exhaustive
        assert not ts.check_ternary_associativity(alg, 1e-9, samples=500).exhaustive
        assert ts.check_module_axioms(mod, 1e-9, samples=5).exhaustive
        assert not ts.check_module_axioms(mod, 1e-9, samples=5, budget=100).exhaustive


def _builder(kind, size, field):
    if kind == "trivial-matrix":
        return ts.trivial_matrix_algebra(size, field)
    return ts.odd_polynomial_algebra(size, field)


LADDER = [("trivial-matrix", m) for m in (2, 3, 4)] + [("odd-poly", c) for c in range(3, 16, 2)]
# an exhaustive run where the default budget holds every tuple; a sampled
# module check draws half the tuples, at most 2000; the norm inequality's
# samples do not go through the law evaluator
CHECK_RUNS = {
    "exhaustive": ({}, {"samples": 5}),
    "sampled": ({"samples": 3000, "seed": 5}, {"samples": 5, "seed": 6, "budget": 2000}),
}


def _run_kwargs(run, d):
    assoc_kwargs, module_kwargs = CHECK_RUNS[run]
    if "budget" in module_kwargs:
        module_kwargs = {**module_kwargs, "budget": min(module_kwargs["budget"], d**5 // 2)}
    return assoc_kwargs, module_kwargs


def _ladder_runs():
    for kind, size in LADDER:
        d = _builder(kind, size, "real").dim
        for run in CHECK_RUNS:
            if run == "sampled" or d**5 <= algebra_mod.DEFAULT_TUPLE_BUDGET:
                yield pytest.param(kind, size, run, id=f"{kind}-{size}-{run}")


class TestEarlierEvaluator:
    """Reports against the evaluator before its work followed the nonzeros."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind, size, run", list(_ladder_runs()))
    def test_builder_ladder_is_bitwise(self, kind, size, run, field, monkeypatch):
        alg = _builder(kind, size, field)
        assoc_kwargs, module_kwargs = _run_kwargs(run, alg.dim)
        got, want = _with_reference(monkeypatch, ts.check_ternary_associativity, alg, 1e-12,
                                    **assoc_kwargs)
        assert got.exhaustive == (run == "exhaustive") and repr(got) == repr(want)
        got, want = _with_reference(monkeypatch, ts.check_module_axioms, ts.self_module(alg),
                                    1e-12, **module_kwargs)
        assert got.exhaustive == (run == "exhaustive") and repr(got) == repr(want)

    @pytest.mark.parametrize("seed", [1, 7, 21])
    def test_benchmark_axiom_checks_are_bitwise(self, seed, monkeypatch):
        # the four checks of perfbench's ``axioms`` workload at this seed
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(4)]
        sampled, exhaustive = ts.trivial_matrix_algebra(4), ts.trivial_matrix_algebra(3, "complex")
        checks = [
            (ts.check_ternary_associativity, sampled, {"budget": 200_000, "seed": seeds[0]}),
            (ts.check_module_axioms, ts.self_module(sampled), {"budget": 200, "seed": seeds[1]}),
            (ts.check_ternary_associativity, exhaustive, {"seed": seeds[2]}),
            (ts.check_module_axioms, ts.self_module(exhaustive), {"seed": seeds[3]}),
        ]
        for check, target, kwargs in checks:
            got, want = _with_reference(monkeypatch, check, target, 1e-9, **kwargs)
            assert got.passed and repr(got) == repr(want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("run", list(CHECK_RUNS))
    def test_dense_tensors_are_bitwise(self, field, run, monkeypatch):
        assoc_kwargs, module_kwargs = _run_kwargs(run, 4)
        alg = _random_algebra(4, field, 21)
        for mod in (ts.self_module(alg), _random_module(alg, 3, 22)):
            got, want = _with_reference(monkeypatch, ts.check_module_axioms, mod, 1e-9,
                                        **module_kwargs)
            assert repr(got) == repr(want)
        got, want = _with_reference(monkeypatch, ts.check_ternary_associativity, alg, 1e-9,
                                    **assoc_kwargs)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("run", list(CHECK_RUNS))
    def test_mixed_tensors_within_the_rounding_bound(self, field, run, monkeypatch, law_close):
        rng = np.random.default_rng(23)
        d = 4
        alg = ts.TernaryAlgebra(d, field, _mixed_tensor(rng, (d,) * 4, field))
        assoc_kwargs, module_kwargs = _run_kwargs(run, d)
        got, want = _with_reference(monkeypatch, ts.check_ternary_associativity, alg, 1e-9,
                                    **assoc_kwargs)
        assert want.max_residual > 0
        law_close((got.max_residual, got.worst), (want.max_residual, want.worst),
                  _ASSOC_LAW["assoc"], {"T": alg.structure}, _assoc_norms(alg))
        assert repr(replace(got, max_residual=0.0, worst=None)) == repr(
            replace(want, max_residual=0.0, worst=None))
        dx = 3
        mod = ts.TernaryModule(alg, dx, *(_mixed_tensor(rng, shape, field) for shape in (
            (dx, d, d, dx), (d, dx, d, dx), (d, d, dx, dx))))
        tensors = {"TA": alg.structure, "Pxab": mod.product_xab, "Paxb": mod.product_axb,
                   "Pabx": mod.product_abx}
        got, want = _with_reference(monkeypatch, ts.check_module_axioms, mod, 1e-9,
                                    **module_kwargs)
        assert want.max_chain_residual > 0
        for name, exprs in _CHAINS.items():
            law_close((got.chain_residuals[name], None), (want.chain_residuals[name], None),
                      exprs, tensors)
        assert repr(replace(got, chain_residuals=None, max_chain_residual=0.0)) == repr(
            replace(want, chain_residuals=None, max_chain_residual=0.0))


class _MatmulSpy(np.ndarray):
    """A tensor view that records the operands of every matrix product."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(v) for v in inputs]
        if ufunc is np.matmul:
            _MatmulSpy.seen.append(plain)
        return getattr(ufunc, method)(*plain, **kwargs)


def _slice_operands(spec, t1, t2, where):
    """The einsum's operands at slice ``where`` of its lead letter, as the
    first operand's rows over q and the second's ``(q, columns)`` matrix."""
    ins, out = spec.split("->")
    first, second = ins.split(",")
    lead = out[0]
    left = np.take(t1, where, axis=first.index(lead)) if lead in first else t1
    right = np.moveaxis(t2, second.index("q"), 0)
    if lead in second:
        right = np.take(right, where, axis=1 + second.replace("q", "").index(lead))
    q = t1.shape[-1]
    return left.reshape(-1, q), right.reshape(q, -1)


class TestWorkFollowsNonzeros:
    @pytest.fixture(autouse=True)
    def _clear(self):
        _MatmulSpy.seen = []

    def test_exhaustive_module_multiplies_live_blocks_only(self):
        # a tensor with rows of several nonzeros keeps the slices: each slice
        # of each chain expression is one product of its live rows by its
        # live columns, fewer entries than the whole slice's operands.  Its
        # integer entries make every sum exact in any order
        t = _mixed_tensor(np.random.default_rng(26), (4,) * 4, "real")
        t = np.sign(t) * np.ceil(abs(t))
        alg = ts.TernaryAlgebra(4, "real", t)
        plans = dict.fromkeys(("TA", "Pxab", "Paxb", "Pabx"), _Plan.of(t.view(_MatmulSpy)))
        norms_of = ts.self_module(alg).norms_of
        found = _law_residuals(_CHAINS, plans, norms_of, range(4))
        assert found == _reference_law_residuals(_CHAINS, dict.fromkeys(plans, alg._plan),
                                                 norms_of, range(4))
        live = whole = 0
        expected = []
        for where in range(4):
            for exprs in _CHAINS.values():
                for spec, _ in exprs:
                    left, right = _slice_operands(spec, t, t, where)
                    rows, cols = left.any(axis=1), right.any(axis=0)
                    expected.append((int(rows.sum()), int(cols.sum())))
                    live += left[rows].size + right[:, cols].size
                    whole += left.size + right.size
        got = [(len(left), right.shape[1]) for left, right in _MatmulSpy.seen]
        assert sorted(got) == sorted(expected)
        for left, right in _MatmulSpy.seen:
            assert left.any(axis=1).all() and right.any(axis=0).all()
        assert sum(a.size + b.size for a, b in _MatmulSpy.seen) == live and live < whole

    def test_all_live_slices_take_the_whole_products(self):
        # some entries are zero, but every row and every column of a slice
        # holds a nonzero T[i, j, k, (i + j + k) mod 3]
        t = _integer_array(np.random.default_rng(24), (3,) * 4, "real")
        i, j, k = np.indices((3, 3, 3))
        t[i, j, k, (i + j + k) % 3] = 1.0
        alg = ts.TernaryAlgebra(3, "real", t)
        assert not alg.structure.all()
        _law_residuals(_ASSOC_LAW, {"T": _Plan.of(alg.structure.view(_MatmulSpy))},
                       alg.norms_of, range(3))
        want = [_slice_operands(spec, alg.structure, alg.structure, where)
                for where in range(3) for spec, _ in _ASSOC_LAW["assoc"]]
        assert len(_MatmulSpy.seen) == len(want)
        for (left, right), (want_left, want_right) in zip(_MatmulSpy.seen, want):
            np.testing.assert_array_equal(left, want_left)
            np.testing.assert_array_equal(right, want_right)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind, size", [("trivial-matrix", 3), ("odd-poly", 13)])
    def test_builder_sampled_check_takes_no_per_key_product(self, kind, size, field):
        alg = _builder(kind, size, field)
        plan = _Plan.of(alg.structure.view(_MatmulSpy))
        rng = np.random.default_rng(25)
        for laws, plans in ((_ASSOC_LAW, {"T": plan}),
                            (_CHAINS, dict.fromkeys(("TA", "Pxab", "Paxb", "Pabx"), plan))):
            chunks = [rng.integers(0, alg.dim, size=(5, 500)) for _ in range(2)]
            found = _law_residuals(laws, plans, alg.norms_of, chunks)
            assert _MatmulSpy.seen == []
            want = _reference_law_residuals(laws, dict.fromkeys(plans, alg._plan), alg.norms_of,
                                            chunks)
            assert found == want


def _one_nonzero_tensor(rng, shape, field, draw=_random_array, dead=1 / 3):
    """A tensor whose rows ``T[i, j, k, :]`` hold one nonzero each, at a
    random place, but for a share ``dead`` of them, which are zero."""
    values = draw(rng, shape[:3], field)
    values[values == 0] = 1
    values[rng.random(shape[:3]) < dead] = 0
    t = np.zeros(shape, values.dtype)
    i, j, k = np.indices(shape[:3])
    t[i, j, k, rng.integers(0, shape[3], shape[:3])] = values
    return t


def _one_nonzero_algebra(d, field, seed, draw=_random_array, dead=1 / 3):
    rng = np.random.default_rng(seed)
    return ts.TernaryAlgebra(d, field, _one_nonzero_tensor(rng, (d,) * 4, field, draw, dead))


class _JoinSpy:
    """Records ``(spec, leads, terms)`` of each ``algebra._join`` call."""

    def __init__(self, monkeypatch):
        self.calls = []
        join = algebra_mod._join

        def spy(e, leads):
            out = join(e, leads)
            self.calls.append((e.spec, leads, len(out[2])))
            return out

        monkeypatch.setattr(algebra_mod, "_join", spy)


class TestJoin:
    """Exhaustive checks of laws whose first tensors hold one nonzero per row
    join the nonzeros on q; the reports keep the bits of whole slices, but
    for inexact complex entries."""

    @pytest.mark.parametrize("draw, field", [
        (_integer_array, "real"), (_integer_array, "complex"), (_random_array, "real"),
    ], ids=["integer-real", "integer-complex", "inexact-real"])
    def test_one_nonzero_rows_are_bitwise(self, draw, field, monkeypatch):
        for d, seed in ((2, 30), (3, 31), (5, 32)):
            alg = _one_nonzero_algebra(d, field, seed, draw)
            spy = _JoinSpy(monkeypatch)
            got, want = _with_reference(monkeypatch, ts.check_ternary_associativity, alg, 1e-9)
            assert spy.calls and got.exhaustive and want.max_residual > 0
            assert repr(got) == repr(want)
            got, want = _with_reference(monkeypatch, ts.check_module_axioms,
                                        ts.self_module(alg), 1e-9, samples=3)
            assert got.exhaustive and want.max_chain_residual > 0
            assert repr(got) == repr(want)

    def test_inexact_complex_rows_within_the_rounding_bound(self, monkeypatch, law_close):
        # a term is one complex product, rounded as numpy multiplies; a BLAS
        # complex product may fuse its multiply and add, so the whole
        # slices can differ from it in the last bit of a part
        for d, seed in ((2, 30), (3, 31), (5, 32)):
            alg = _one_nonzero_algebra(d, "complex", seed)
            got, want = _with_reference(monkeypatch, ts.check_ternary_associativity, alg, 1e-9)
            law_close((got.max_residual, got.worst), (want.max_residual, want.worst),
                      _ASSOC_LAW["assoc"], {"T": alg.structure}, _assoc_norms(alg))
            assert repr(replace(got, max_residual=0.0, worst=None)) == repr(
                replace(want, max_residual=0.0, worst=None))
            got, want = _with_reference(monkeypatch, ts.check_module_axioms,
                                        ts.self_module(alg), 1e-9, samples=3)
            tensors = dict.fromkeys(("TA", "Pxab", "Paxb", "Pabx"), alg.structure)
            for name, exprs in _CHAINS.items():
                law_close((got.chain_residuals[name], None), (want.chain_residuals[name], None),
                          exprs, tensors)
            assert repr(replace(got, chain_residuals=None, max_chain_residual=0.0)) == repr(
                replace(want, chain_residuals=None, max_chain_residual=0.0))
            # each value is the product of the two nonzeros it joins
            for spec, _ in _ASSOC_LAW["assoc"]:
                tuples, r, v = algebra_mod._join(
                    algebra_mod._Expression(spec, alg._plan, alg._plan), range(d))
                i, j, k, l, m = np.unravel_index(tuples, (d,) * 5)
                t = alg.structure
                if spec.startswith("abcq"):
                    first, second = t[i, j, k], t[:, l, m, r].T
                else:
                    first, second = t[j, k, l], t[i, :, m, r]
                q = np.argmax(first != 0, axis=-1)
                rows = np.arange(len(q))
                assert v.tobytes() == (first[rows, q] * second[rows, q]).tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_module_of_another_dimension_is_bitwise(self, field, monkeypatch):
        rng = np.random.default_rng(33)
        d, dx = 4, 3
        alg = ts.TernaryAlgebra(d, field, _one_nonzero_tensor(rng, (d,) * 4, field))
        mod = ts.TernaryModule(alg, dx, *(_one_nonzero_tensor(rng, shape, field) for shape in (
            (dx, d, d, dx), (d, dx, d, dx), (d, d, dx, dx))))
        spy = _JoinSpy(monkeypatch)
        got, want = _with_reference(monkeypatch, ts.check_module_axioms, mod, 1e-9, samples=3)
        assert len(spy.calls) == 15 and got.tuples_checked == d**4 * dx
        assert all(want.chain_residuals.values()) and repr(got) == repr(want)

    def test_a_row_of_two_nonzeros_keeps_the_slices(self, monkeypatch):
        rng = np.random.default_rng(34)
        t = _one_nonzero_tensor(rng, (4,) * 4, "real", _integer_array)
        t[1, 2, 3] = 0
        t[1, 2, 3, :2] = (1.0, -2.0)
        alg = ts.TernaryAlgebra(4, "real", t)
        spy = _JoinSpy(monkeypatch)
        got, want = _with_reference(monkeypatch, ts.check_ternary_associativity, alg, 1e-9)
        assert spy.calls == [] and want.max_residual > 0 and repr(got) == repr(want)
        # a module whose product_xab holds the row of two: the chains with it
        # as a first tensor keep the slices, the others join, and every
        # report keeps its bits
        one = ts.TernaryAlgebra(4, "real", _one_nonzero_tensor(rng, (4,) * 4, "real",
                                                               _integer_array))
        mod = ts.TernaryModule(one, 4, t, *(_one_nonzero_tensor(rng, (4,) * 4, "real",
                                                                _integer_array) for _ in "ab"))
        got, want = _with_reference(monkeypatch, ts.check_module_axioms, mod, 1e-9, samples=3)
        assert all(want.chain_residuals.values()) and repr(got) == repr(want)
        joined = {spec for spec, _, _ in spy.calls}
        for name, exprs in _CHAINS.items():
            specs = {spec for spec, _ in exprs}
            if any(names[0] == "Pxab" for _, names in exprs):
                assert not joined & specs, name
            else:
                assert specs <= joined, name

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind, size", [("trivial-matrix", 3), ("odd-poly", 13)])
    def test_builder_checks_join_without_products(self, kind, size, field, monkeypatch):
        # each expression joins sum_q nnz1(q) nnz2(q) terms, and no BLAS product runs
        alg = _builder(kind, size, field)
        t, d = alg.structure, alg.dim
        plan = _Plan.of(t.view(_MatmulSpy))
        _MatmulSpy.seen = []
        for laws, names in ((_ASSOC_LAW, ("T",)), (_CHAINS, ("TA", "Pxab", "Paxb", "Pabx"))):
            spy = _JoinSpy(monkeypatch)
            found = _law_residuals(laws, dict.fromkeys(names, plan), alg.norms_of, range(d))
            assert _MatmulSpy.seen == []
            assert found == _reference_law_residuals(laws, dict.fromkeys(names, alg._plan),
                                                     alg.norms_of, range(d))
            want = {}
            for spec, _ in itertools.chain(*laws.values()):
                q = spec.split(",")[1].index("q")
                by_q = np.count_nonzero(t, axis=(0, 1, 2)), np.count_nonzero(t, axis=tuple(
                    a for a in range(4) if a != q))
                want[spec] = int(by_q[0] @ by_q[1])
            got = dict.fromkeys(want, 0)
            for spec, _, terms in spy.calls:
                got[spec] += terms
            assert got == want

    @pytest.mark.parametrize("chunk", [1, 60, 400, algebra_mod._TUPLE_CHUNK])
    def test_runs_cover_each_lead_value_once(self, chunk, monkeypatch):
        alg = _one_nonzero_algebra(5, "real", 35, _integer_array)
        whole = ts.check_ternary_associativity(alg, 1e-9), ts.check_module_axioms(
            ts.self_module(alg), 1e-9, samples=3)
        monkeypatch.setattr(algebra_mod, "_TUPLE_CHUNK", chunk)
        for law, check, arg in ((_ASSOC_LAW, ts.check_ternary_associativity, alg),
                                (_CHAINS, ts.check_module_axioms, ts.self_module(alg))):
            spy = _JoinSpy(monkeypatch)
            report = check(arg, 1e-9) if law is _ASSOC_LAW else check(arg, 1e-9, samples=3)
            assert repr(report) == repr(whole[law is _CHAINS])
            for exprs in law.values():
                specs = [spec for spec, _ in exprs]
                calls = [c for c in spy.calls if c[0] in specs]
                runs = [leads for spec, leads, _ in calls if spec == specs[0]]
                # the runs cut range(5) in order, and a run of more than one
                # value holds at most ``chunk`` terms over the law
                assert [v for leads in runs for v in leads] == list(range(5))
                for leads in runs:
                    terms = sum(n for _, at, n in calls if at == leads)
                    assert len(leads) == 1 or terms <= chunk
                if chunk == 1:
                    assert len(runs) == 5

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_peak_stays_within_the_slices(self, field):
        # every row live and holding one nonzero: each tuple meets one term
        # of each expression, so a join over every lead value at once would
        # hold every tuple; the runs keep it within the slices' peak
        alg = _one_nonzero_algebra(9, field, 36, dead=0.0)
        mod = ts.self_module(alg)
        plans = dict(T=alg._plan, TA=alg._plan, **mod._plans)

        def slices(laws, norms_of):
            for exprs in laws.values():
                exprs = [algebra_mod._Expression(spec, plans[a], plans[b])
                         for spec, (a, b) in exprs]
                for where in range(9):
                    algebra_mod._slice_norms(exprs, where, norms_of)

        for law, norms_of in ((_ASSOC_LAW, alg.norms_of), (_CHAINS, mod.norms_of)):
            peaks = []
            for run in (lambda: _law_residuals(law, plans, norms_of, range(9)),
                        lambda: slices(law, norms_of)):
                run()
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[0] <= peaks[1], peaks
            found = _law_residuals(law, plans, norms_of, range(9))
            assert all(res > 0 for res, _ in found.values())


def _overflowing(field, join):
    """trivial-matrix m = 2 with ``T[0, 0, 0, 0] = 2`` (one nonzero per row,
    so exhaustive checks join) or ``T[0, 0, 0, 1] = 2`` (a row of two, so
    they take slices), scaled by 1e160: every product of two nonzeros
    overflows."""
    t = ts.trivial_matrix_algebra(2, field).structure.copy()
    t[0, 0, 0, 0 if join else 1] = 2
    return t


def _first_non_finite(laws, tensors, order=None):
    """Per law, the first tuple, in C order or in the order of the tuple
    array ``order``, where a difference of consecutive expressions is not
    finite."""
    first = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, exprs in laws.items():
            vals = [np.einsum(spec, *(tensors[n] for n in names)) for spec, names in exprs]
            bad = np.logical_or.reduce([~np.isfinite(u - v).all(axis=-1)
                                        for u, v in itertools.pairwise(vals)])
            if order is None:
                first[name] = tuple(map(int, np.argwhere(bad)[0]))
            else:
                first[name] = tuple(map(int, order[:, int(np.argmax(bad[tuple(order)]))]))
    return first


class TestNonFiniteValues:
    """Law values that overflow fail the check with an infinite residual at
    their first tuple, and no numpy warning escapes."""

    @pytest.fixture(autouse=True)
    def _warnings_fail(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("join", [True, False], ids=["join", "slices"])
    def test_associativity_fails_at_the_first_tuple(self, join, field, monkeypatch):
        t = _overflowing(field, join)
        spy = _JoinSpy(monkeypatch)
        unscaled = ts.check_ternary_associativity(ts.TernaryAlgebra(4, field, t), 1e-9)
        assert unscaled.max_residual > 0
        assert bool(spy.calls) == join
        alg = ts.TernaryAlgebra(4, field, 1e160 * t)
        first = _first_non_finite(_ASSOC_LAW, {"T": alg.structure})["assoc"]
        report = ts.check_ternary_associativity(alg, 1e-9)
        assert (report.max_residual, report.worst, report.passed) == (np.inf, first, False)
        draws = np.random.default_rng(3).integers(0, 4, size=(5, 500))
        first = _first_non_finite(_ASSOC_LAW, {"T": alg.structure}, draws)["assoc"]
        report = ts.check_ternary_associativity(alg, 1e-9, samples=500, seed=3)
        assert (report.max_residual, report.worst, report.passed) == (np.inf, first, False)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("join", [True, False], ids=["join", "slices"])
    def test_module_chains_fail_at_the_first_tuple(self, join, field):
        alg = ts.TernaryAlgebra(4, field, 1e160 * _overflowing(field, join))
        mod = ts.self_module(alg)
        tensors = dict.fromkeys(("TA", "Pxab", "Paxb", "Pabx"), alg.structure)
        plans = dict(TA=alg._plan, **mod._plans)
        first = _first_non_finite(_CHAINS, tensors)
        assert _law_residuals(_CHAINS, plans, mod.norms_of, range(4)) == {
            name: (np.inf, at) for name, at in first.items()}
        draws = np.random.default_rng(4).integers(0, 4, size=(5, 300))
        first = _first_non_finite(_CHAINS, tensors, draws)
        assert _law_residuals(_CHAINS, plans, mod.norms_of, [draws[:, :100], draws[:, 100:]]) == {
            name: (np.inf, at) for name, at in first.items()}
        for kwargs in ({}, {"budget": 300, "seed": 5}):
            report = ts.check_module_axioms(mod, 1e-9, samples=3, **kwargs)
            assert report.exhaustive == (not kwargs) and not report.passed
            assert set(report.chain_residuals.values()) == {np.inf}


class TestCheckerArguments:
    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"samples": 2.5}, "samples"),
        ({"budget": 2.5}, "budget"),
        ({"budget": 100.0}, "budget"),
        ({"samples": "3"}, "samples"),
    ], ids=["nan-tol", "inf-tol", "negative-tol", "float-samples", "float-budget",
            "integral-float-budget", "str-samples"])
    @pytest.mark.parametrize("checker", ["associativity", "module"])
    def test_rejected_before_any_work(self, checker, kwargs, message, monkeypatch):
        def no_work(*args, **kw):
            raise AssertionError("checked tuples before rejecting an argument")

        monkeypatch.setattr(algebra_mod, "_law_residuals", no_work)
        monkeypatch.setattr(module_mod, "_law_residuals", no_work)
        monkeypatch.setattr(module_mod, "_random_vector", no_work)
        monkeypatch.setattr(np.random, "default_rng", no_work)
        alg = ts.trivial_matrix_algebra(2)
        kwargs = {"tol": 1e-9, **kwargs}
        check = (ts.check_ternary_associativity if checker == "associativity"
                 else ts.check_module_axioms)
        with pytest.raises(ValueError, match=message):
            check(alg if checker == "associativity" else ts.self_module(alg), **kwargs)

    @pytest.mark.parametrize("count", [np.int64(40), 40])
    def test_integer_counts_of_any_type_pass(self, count):
        alg = ts.trivial_matrix_algebra(2)
        assert ts.check_ternary_associativity(alg, 1e-9, samples=count).checked == 40
        assert ts.check_module_axioms(ts.self_module(alg), 1e-9, samples=count,
                                      budget=count).tuples_checked == 40


def _reference_reduction(alg, e):
    t = alg.structure
    eye = alg.basis()
    right = np.einsum("j,k,ijkl->il", e, e, t)
    mid = np.einsum("i,k,ijkl->jl", e, e, t)
    left = np.einsum("i,j,ijkl->kl", e, e, t)
    per_basis = alg.norms_of(np.stack([right, mid, left]) - eye).max(axis=0)
    table = np.einsum("j,ijkl->ikl", e, t)
    assoc_left = np.einsum("ijq,qkl->ijkl", table, table)
    assoc_right = np.einsum("jkq,iql->ijkl", table, table)
    assoc = alg.norms_of(assoc_left - assoc_right)
    # the residual is a difference, so its error scales with the products
    return per_basis, table, float(assoc.max()), float(alg.norms_of(assoc_left).max())


def _rel_close(got, want, scale=None, rel=1e-14):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).max() if scale is None else scale
    assert np.all(np.abs(got - want) <= rel * scale)


class TestIdentityReduction:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_matches_the_einsums(self, d, field):
        rng = np.random.default_rng(d)
        alg = _random_algebra(d, field, d + 10)
        e = _random_array(rng, d, field)
        per_basis, table, assoc, scale = _reference_reduction(alg, e)
        red = ts.verify_identity_and_reduce(alg, e, tol=1e300)
        _rel_close(red.identity_residual, per_basis.max())
        _rel_close(red.table, table)
        _rel_close(red.assoc_residual, assoc, scale)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matrix_identity_is_exact(self, m):
        alg = ts.trivial_matrix_algebra(m, "complex")
        red = ts.verify_identity_and_reduce(alg, np.eye(m).ravel(), tol=1e-12)
        assert red.identity_residual == 0.0 and red.assoc_residual == 0.0
        np.testing.assert_array_equal(red.table, _reference_reduction(alg, red.identity)[1])

    def test_failure_names_the_same_basis_vector(self):
        alg = _random_algebra(4, "real", 3)
        e = np.random.default_rng(2).standard_normal(4)
        per_basis = _reference_reduction(alg, e)[0]
        with pytest.raises(ts.IdentityCheckError) as info:
            ts.verify_identity_and_reduce(alg, e, tol=1e-12)
        assert info.value.worst_index == int(np.argmax(per_basis))
        _rel_close(info.value.residual, per_basis.max())


def _reference_rescale(alg, samples, seed=0):
    """The rescale with its per-slot einsums."""
    d = alg.dim
    t = alg.structure
    if not np.any(t):
        return alg
    rng = np.random.default_rng(seed)

    def ratio(a, b, c):
        na, nb, nc = alg.norm_of(a), alg.norm_of(b), alg.norm_of(c)
        if na == 0 or nb == 0 or nc == 0:
            return 0.0, None
        val = alg.norm_of(ternary_product(alg, a, b, c)) / (na * nb * nc)
        return val, (a, b, c)

    best_val = 0.0
    top = []
    for _ in range(samples):
        val, triple = ratio(*(_random_vector(rng, d, alg.field) for _ in range(3)))
        if triple is None:
            continue
        top.append((val, triple))
        best_val = max(best_val, val)
    top.sort(key=lambda item: -item[0])
    top = top[: min(5, len(top))]
    if alg.norm is None:
        slot_einsum = ("j,k,ijkl->li", "i,k,ijkl->lj", "i,j,ijkl->lk")
        for val, (a, b, c) in top:
            vecs = [a.copy(), b.copy(), c.copy()]
            for _ in range(4):
                for slot in range(3):
                    others = [vecs[s] for s in range(3) if s != slot]
                    mat = np.einsum(slot_einsum[slot], others[0], others[1], t)
                    _, _, vh = np.linalg.svd(mat)
                    vecs[slot] = vh[0].conj()
            val, _ = ratio(*vecs)
            best_val = max(best_val, val)
    kappa = max(1.0, float(np.sqrt(best_val)))
    return replace(alg, norm_scale=alg.norm_scale * kappa)


class TestRescaleAscent:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_einsums(self, field, seed):
        for alg in (_random_algebra(4, field, seed), _random_algebra(3, field, seed, scale=3.0),
                    replace(ts.trivial_matrix_algebra(2, field),
                            structure=3.0 * ts.trivial_matrix_algebra(2, field).structure)):
            got = ts.rescale_norm_submultiplicative(alg, samples=40, seed=seed)
            want = _reference_rescale(alg, samples=40, seed=seed)
            assert got.norm_scale > 1.0
            _rel_close(got.norm_scale, want.norm_scale)
