import numpy as np
import pytest

from snpgibbs.pedigree import (
    BLOCK_ROWS,
    OrderedPedigree,
    PedigreeError,
    PedigreeRecord,
    RelationshipMatrix,
    build_numerator_matrix,
    extract_submatrix,
    order_pedigree,
)

from _oracles import column_read_numerator_matrix, ready_set_order


def rec(i, s=None, d=None):
    return PedigreeRecord(i, s, d)


class TestOrdering:
    def test_simple_trio(self):
        ped = order_pedigree({rec("A"), rec("B"), rec("C", "A", "B")})
        assert ped.ids == ("A", "B", "C")
        assert ped.base_count == 2

    def test_input_order_irrelevant(self):
        a = order_pedigree([rec("C", "A", "B"), rec("A"), rec("B")])
        b = order_pedigree([rec("A"), rec("B"), rec("C", "A", "B")])
        assert a == b

    def test_cycle_rejected_with_chain(self):
        with pytest.raises(PedigreeError, match="cycle"):
            order_pedigree([rec("C", "A", "B"), rec("A", "C"), rec("B")])

    def test_self_parent_is_cycle(self):
        with pytest.raises(PedigreeError, match="cycle"):
            order_pedigree([rec("A", "A")])

    def test_dangling_parent_named(self):
        with pytest.raises(PedigreeError, match="ghost"):
            order_pedigree([rec("A"), rec("B", "ghost")])

    def test_duplicate_id_rejected(self):
        with pytest.raises(PedigreeError, match="duplicate"):
            order_pedigree([rec("A"), PedigreeRecord("A", None, None)])


class TestRecursion:
    def test_full_sibs_exactly_half(self):
        ped = order_pedigree(
            [rec("P1"), rec("P2"), rec("O1", "P1", "P2"), rec("O2", "P1", "P2")]
        )
        R = build_numerator_matrix(ped)
        i, j = R.index_of("O1"), R.index_of("O2")
        assert R.entries[i, j] == 0.5
        assert R.entries[i, i] == 1.0

    def test_half_sibs_exactly_quarter(self):
        ped = order_pedigree(
            [
                rec("P1"),
                rec("P2"),
                rec("P3"),
                rec("O1", "P1", "P2"),
                rec("O2", "P1", "P3"),
            ]
        )
        R = build_numerator_matrix(ped)
        assert R.entries[R.index_of("O1"), R.index_of("O2")] == 0.25

    def test_all_parentless_gives_identity(self):
        ped = order_pedigree([rec(f"B{i}") for i in range(6)])
        R = build_numerator_matrix(ped)
        assert np.array_equal(R.entries, np.eye(6))

    def test_self_mating_diagonal(self):
        # offspring of g x g with g an unrelated founder: R_jj = 1 + 0.5*R_gg
        ped = order_pedigree([rec("G"), rec("J", "G", "G")])
        R = build_numerator_matrix(ped)
        assert R.entries[R.index_of("J"), R.index_of("J")] == 1.5

    def test_one_parent_known(self):
        ped = order_pedigree([rec("P"), rec("O", "P")])
        R = build_numerator_matrix(ped)
        assert R.entries[R.index_of("O"), R.index_of("P")] == 0.5
        assert R.entries[R.index_of("O"), R.index_of("O")] == 1.0

    def test_bitwise_symmetry_and_base_identity(self):
        ped = _random_pedigree(200, seed=3)
        R = build_numerator_matrix(ped)
        assert np.array_equal(R.entries, R.entries.T)
        a = ped.base_count
        assert np.array_equal(R.entries[:a, :a], np.eye(a))

    def test_order_independence_up_to_permutation(self):
        canonical = _random_pedigree(80, seed=11)
        R1 = build_numerator_matrix(canonical)
        # another valid topological order: reverse-id tie-break in Kahn
        by_id = {r.individual_id: r for r in canonical.records}
        placed, ordered, pending = set(), [], set(by_id)
        while pending:
            ready = sorted(
                (r for r in pending if all(p in placed for p in by_id[r].parents())),
                reverse=True,
            )
            base_first = sorted(ready, key=lambda r: bool(by_id[r].parents()))
            for rid in base_first:
                ordered.append(by_id[rid])
                placed.add(rid)
                pending.discard(rid)
        alt = OrderedPedigree(tuple(ordered), canonical.base_count)
        assert alt.ids != canonical.ids
        R2 = build_numerator_matrix(alt)
        perm = [R2.index_of(i) for i in R1.ids]
        assert np.array_equal(R1.entries, R2.entries[np.ix_(perm, perm)])

    def test_positive_definite_random_pedigrees(self):
        for seed in range(5):
            R = build_numerator_matrix(_random_pedigree(300, seed=seed))
            eig = np.linalg.eigvalsh(R.entries)
            assert eig[0] > 1e-10 * eig[-1]


class TestAgainstReference:
    @pytest.mark.parametrize("n, seed", [(40, 1), (300, 2), (600, 3)])
    def test_order_and_matrix_match_reference(self, n, seed):
        records = list(_random_pedigree(n, seed).records)
        np.random.default_rng(seed).shuffle(records)
        ped = order_pedigree(records)
        ref = ready_set_order(records)
        assert ped == ref
        assert np.array_equal(
            build_numerator_matrix(ped).entries, column_read_numerator_matrix(ref).entries
        )

    @pytest.mark.parametrize(
        "records",
        [
            [rec("C", "A", "B"), rec("A", "C"), rec("B")],
            [rec("A", "A"), rec("B")],
            [rec("A"), rec("B", "A", "D"), rec("D", "B"), rec("E", "D")],
            [rec("A"), rec("B", "ghost")],
        ],
    )
    def test_errors_match_reference(self, records):
        with pytest.raises(PedigreeError) as ours:
            order_pedigree(records)
        with pytest.raises(PedigreeError) as ref:
            ready_set_order(records)
        assert str(ours.value) == str(ref.value)


class TestBlockRecursion:
    """The block recursion equals the record-by-record reference bit for bit."""

    @pytest.mark.parametrize("kind", ["mixed", "dam only", "selfing"])
    @pytest.mark.parametrize(
        "widths",
        [(12, 9, 15, 7), (BLOCK_ROWS + 3, 2 * BLOCK_ROWS + 5, 40), (3, 1, 2, 1, 1, 2, 2, 1, 1)],
    )
    def test_generations(self, widths, kind):
        rng = np.random.default_rng(len(widths) + sum(widths))
        records, previous = [], []
        for g, width in enumerate(widths):
            current = [f"G{g}_{k:03d}" for k in range(width)]
            for rid in current:
                a, b = rng.choice(previous, size=2) if previous else (None, None)
                if kind == "dam only":
                    records.append(rec(rid, None, b))
                elif kind == "selfing":
                    records.append(rec(rid, a, a))
                else:  # both parents, the sire or the dam alone, or none
                    sire, dam = [(a, b), (a, None), (None, b), (None, None)][rng.integers(4)]
                    records.append(rec(rid, sire, dam))
            previous = current
        ped = order_pedigree(records)
        want = column_read_numerator_matrix(ped).entries
        assert np.array_equal(build_numerator_matrix(ped).entries, want)

    @pytest.mark.parametrize("n, seed", [(80, 11), (400, 12)])
    def test_order_not_grouped_by_generation(self, n, seed):
        # the records as made: each after its parents, founders and
        # offspring of every generation interleaved
        records = _random_records(n, seed)
        base = next(k for k, r in enumerate(records) if r.parents())
        ped = OrderedPedigree(tuple(records), base)
        assert ped.ids != order_pedigree(records).ids
        assert np.array_equal(
            build_numerator_matrix(ped).entries, column_read_numerator_matrix(ped).entries
        )

    @pytest.mark.parametrize(
        "records, base, message",
        [
            ([rec("A", "B"), rec("B")], 1, "record 'A' in base block has a known parent"),
            ([rec("A"), rec("B", "A", "ghost")], 1, "unknown parent id 'ghost'"),
            ([rec("A"), rec("B", "C"), rec("C", "A")], 1,
             "parent 'C' does not precede offspring 'B'"),
            ([rec("A"), rec("B", None, "B")], 1, "parent 'B' does not precede offspring 'B'"),
            ([rec("A"), rec("B", "C", "ghost"), rec("C")], 1,
             "parent 'C' does not precede offspring 'B'"),
            ([rec("A"), rec("A")], 2, "duplicate individual id 'A'"),
        ],
    )
    def test_direct_construction_checked(self, records, base, message):
        with pytest.raises(PedigreeError) as info:
            OrderedPedigree(tuple(records), base)
        assert str(info.value) == message


class TestExtract:
    def test_identity_selection(self):
        R = build_numerator_matrix(_random_pedigree(40, seed=1))
        sub = extract_submatrix(R, list(R.ids))
        assert np.array_equal(sub.entries, R.entries)

    def test_base_only_selection_is_identity(self):
        ped = _random_pedigree(60, seed=2)
        R = build_numerator_matrix(ped)
        base_ids = list(ped.ids[: ped.base_count])
        sub = extract_submatrix(R, base_ids)
        assert np.array_equal(sub.entries, np.eye(len(base_ids)))

    def test_offspring_block_shape_and_pd(self):
        ped = _random_pedigree(150, seed=4)
        R = build_numerator_matrix(ped)
        chosen = list(ped.ids[ped.base_count :])
        sub = extract_submatrix(R, chosen)
        assert sub.dim == len(chosen)
        assert sub.is_positive_definite()

    def test_unknown_id_named(self):
        R = build_numerator_matrix(_random_pedigree(10, seed=5))
        with pytest.raises(KeyError, match="nope"):
            extract_submatrix(R, ["nope"])


class TestRelationshipMatrix:
    def test_identity_constructor(self):
        R = RelationshipMatrix.identity(["x", "y"])
        assert np.array_equal(R.entries, np.eye(2))


def _random_pedigree(n, seed):
    """Layered random pedigree: founders plus offspring of earlier individuals."""
    return order_pedigree(_random_records(n, seed))


def _random_records(n, seed):
    """The records of ``_random_pedigree`` in the order they are made."""
    rng = np.random.default_rng(seed)
    base = max(4, n // 5)
    records = [rec(f"I{k}") for k in range(base)]
    for k in range(base, n):
        u = rng.random()
        if u < 0.15:
            records.append(rec(f"I{k}"))
        elif u < 0.3:
            g = int(rng.integers(k))
            records.append(rec(f"I{k}", f"I{g}"))
        else:
            g = int(rng.integers(k))
            h = int(rng.integers(k))
            if h == g:  # avoid compounding self-mating inbreeding
                h = (g + 1) % k
            records.append(rec(f"I{k}", f"I{g}", f"I{h}"))
    return records
