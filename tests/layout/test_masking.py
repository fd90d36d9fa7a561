"""Property tests: the bitmask action masks equal the plain rules.

The plain unit rule (paper Fig. 2(b)) is: a unit move is legal iff its
target is free and the group is still connected afterwards.  The placer
instead looks up, per group shape, which directions keep the group
connected (:func:`connected_unit_moves`, a cut analysis on cell masks)
and tests the target against the placement's free-cell mask.  The plain
group rule is: a rigid translation is legal iff every unit's target is
in bounds and free or held by the group itself; the placer tests it as
one shift of the group's cell mask.  These tests replay the plain rules
cell by cell and demand the same legal sets in the same order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.layout import (
    DIRECTIONS,
    CanvasSpec,
    Placement,
    PlacementEnv,
    connected_unit_moves,
    is_connected,
    legal_group_moves,
    legal_unit_moves,
    neighbours,
    unit_move_is_legal,
)
from repro.netlist import comparator, current_mirror, two_stage_ota


def group_units(env, group_name):
    """The units of ``group_name`` in the environment's action order."""
    block = env.block
    group = next(g for g in block.groups if g.name == group_name)
    return [(name, k) for name in group.devices
            for k in range(block.circuit.device(name).n_units)]


def spec_group_actions(placement, units):
    """Legal rigid-translation directions by the plain rule, in order."""
    out = []
    for k, (dc, dr) in enumerate(DIRECTIONS):
        ok = True
        for unit in units:
            c, r = placement.cell_of(unit)
            target = (c + dc, r + dr)
            holder = placement.unit_at(target)
            if not placement.canvas.in_bounds(target) or (
                    holder is not None and holder not in units):
                ok = False
                break
        if ok:
            out.append(k)
    return out


def spec_actions(placement, units, adjacency):
    """Legal ``(local, k)`` pairs by the plain rule, in placer order."""
    out = []
    for local, unit in enumerate(units):
        c, r = placement.cell_of(unit)
        for k, (dc, dr) in enumerate(DIRECTIONS):
            target = (c + dc, r + dr)
            if not placement.is_free(target):
                continue
            after = [target if u == unit else placement.cell_of(u) for u in units]
            if is_connected(after, adjacency):
                out.append((local, k))
    return out


@st.composite
def scenes(draw):
    """A canvas holding one group (grown connected, unit order shuffled)
    and some obstacle units around it."""
    adjacency = draw(st.sampled_from((4, 8)))
    cols = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.integers(min_value=2, max_value=7))
    all_cells = [(c, r) for r in range(rows) for c in range(cols)]
    size = draw(st.integers(min_value=1, max_value=min(9, len(all_cells))))
    group = [draw(st.sampled_from(all_cells))]
    while len(group) < size:
        frontier = sorted({
            nb for cell in group for nb in neighbours(cell, adjacency)
            if nb in all_cells and nb not in group
        })
        if not frontier:
            break
        group.append(draw(st.sampled_from(frontier)))
    group = draw(st.permutations(group))
    free = [cell for cell in all_cells if cell not in group]
    obstacles = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    return adjacency, CanvasSpec(cols, rows), group, obstacles


@given(scene=scenes())
@settings(max_examples=300, deadline=None)
def test_cut_analysis_matches_plain_rule(scene):
    adjacency, canvas, group, obstacles = scene
    placement = Placement(canvas)
    units = [("g", i) for i in range(len(group))]
    for unit, cell in zip(units, group):
        placement.place(unit, cell)
    for j, cell in enumerate(obstacles):
        placement.place(("x", j), cell)

    expected = spec_actions(placement, units, adjacency)
    got = [
        (local, k)
        for local, unit in enumerate(units)
        for k in legal_unit_moves(placement, unit, units, adjacency)
    ]
    assert got == expected
    for local, unit in enumerate(units):
        for k, direction in enumerate(DIRECTIONS):
            assert unit_move_is_legal(
                placement, unit, direction, units, adjacency
            ) == ((local, k) in expected)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       adjacency=st.sampled_from((4, 8)))
@settings(max_examples=12, deadline=None)
def test_env_actions_match_plain_rule_along_walks(seed, adjacency):
    rng = np.random.default_rng(seed)
    for build in (current_mirror, comparator, two_stage_ota):
        env = PlacementEnv(build(), lambda p: 0.0, adjacency=adjacency)
        for __ in range(25):
            group = env.group_names[int(rng.integers(len(env.group_names)))]
            legal = env.legal_unit_actions(group)
            assert legal == spec_actions(
                env.placement, group_units(env, group), adjacency
            )
            if legal:
                local, k = legal[int(rng.integers(len(legal)))]
                assert env.step_unit(group, local, k)


#: One environment per library block; the group scenes swap in their
#: own placement.
SCENE_ENVS = [PlacementEnv(build(), lambda p: 0.0)
              for build in (current_mirror, comparator, two_stage_ota)]


@st.composite
def group_scenes(draw):
    """A small canvas holding one library group's units on arbitrary
    distinct cells (often on an edge) and some obstacle units."""
    env = draw(st.sampled_from(SCENE_ENVS))
    group = draw(st.sampled_from(env.group_names))
    units = group_units(env, group)
    cols = draw(st.integers(min_value=-(-len(units) // 8), max_value=8))
    rows = draw(st.integers(min_value=-(-len(units) // cols), max_value=8))
    all_cells = [(c, r) for r in range(rows) for c in range(cols)]
    cells = draw(st.permutations(all_cells))[:len(units)]
    free = [cell for cell in all_cells if cell not in cells]
    obstacles = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    placement = Placement(CanvasSpec(cols, rows))
    for unit, cell in zip(units, cells):
        placement.place(unit, cell)
    for j, cell in enumerate(obstacles):
        placement.place(("x", j), cell)
    return env, group, units, placement


@given(scene=group_scenes())
@settings(max_examples=300, deadline=None)
def test_group_mask_matches_plain_rule(scene):
    env, group, units, placement = scene
    env.placement = placement
    expected = spec_group_actions(placement, units)
    assert env.legal_group_actions(group) == expected
    assert legal_group_moves(placement, units) == expected


def assert_same_placement(got, want):
    """Equal cells, occupancy (dictionary order included), mask and
    signature."""
    assert list(got._cells.items()) == list(want._cells.items())
    assert list(got._occupancy.items()) == list(want._occupancy.items())
    assert got._mask == want._mask
    assert got.signature() == want.signature()


@given(scene=group_scenes())
@settings(max_examples=300, deadline=None)
def test_translate_matches_move_many(scene):
    """On every translation the group mask offers, the unchecked
    :meth:`Placement.translate` (the agents' move and its undo) leaves
    the placement exactly as the validating ``move_many`` does."""
    __, __, units, placement = scene
    for k in legal_group_moves(placement, units):
        dc, dr = DIRECTIONS[k]
        checked, moved = placement.copy(), placement.copy()
        for step_c, step_r in ((dc, dr), (-dc, -dr)):
            checked.move_many({unit: (c + step_c, r + step_r)
                               for unit, (c, r)
                               in zip(units, checked.cells_of(units))})
            moved.translate(units, step_c, step_r)
            assert_same_placement(moved, checked)
        assert moved.as_dict() == placement.as_dict()
        assert moved._mask == placement._mask


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=12, deadline=None)
def test_env_group_actions_match_plain_rule_along_walks(seed):
    rng = np.random.default_rng(seed)
    for build in (current_mirror, comparator, two_stage_ota):
        env = PlacementEnv(build(), lambda p: 0.0)
        for __ in range(25):
            group = env.group_names[int(rng.integers(len(env.group_names)))]
            legal = env.legal_group_actions(group)
            assert legal == spec_group_actions(
                env.placement, group_units(env, group))
            if legal:
                env.move_group(group, legal[int(rng.integers(len(legal)))])
            unit_legal = env.legal_unit_actions(group)
            if unit_legal:
                local, k = unit_legal[int(rng.integers(len(unit_legal)))]
                env.move_unit(group, local, k)


def test_single_unit_moves_anywhere_free():
    assert connected_unit_moves(((0, 0),), 8) == (tuple(range(8)),)
    assert connected_unit_moves(((0, 0),), 4) == (tuple(range(8)),)


def test_cut_vertex_move_must_bridge_both_halves():
    # A row of three: the middle unit may only step to cells touching
    # both ends (N and S under 8-adjacency; nowhere under 4).
    shape = ((0, 0), (1, 0), (2, 0))
    middle = connected_unit_moves(shape, 8)[1]
    assert {DIRECTIONS[k] for k in middle} == {(0, -1), (0, 1)}
    assert connected_unit_moves(shape, 4)[1] == ()


def test_shape_cache_is_bounded():
    info = connected_unit_moves.cache_info()
    assert info.maxsize is not None
    assert 0 < info.maxsize <= 4096
    assert info.currsize <= info.maxsize
