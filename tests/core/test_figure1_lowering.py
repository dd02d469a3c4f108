"""The object model's ``ActionDef``s are a lowering of the action table —
checked here against Figure 1 transcribed by hand (``figure1_oracle.py``).

``TransitionSystem(derived)`` and ``TransitionSystem(oracle)`` must give the
same successors in the same order (a successor's label is its entry of the
enabled list, so that is the enabled list too), for the paper's program, a
wrong ``D`` and both ablations (``choy-singh`` runs the no-fixdepth table's
very functions, which is asserted instead of re-run):

* on **every** state (``needs`` free, depth capped at ``D + 1``) of line3
  and ring3 for the paper's program; star3 has 2.65 M such states, the
  other programs differ from the paper's by a row or an integer, and a
  crashed process only filters the list — those (one process dead, one
  malicious included) are checked at a fixed stride through the same
  enumeration instead (tier-1 budget);
* on 2 000 random arbitrary states — any status, any in-domain depth, half
  of them uncapped as simulations run — per program on six larger graphs.

Plus what generated code owes its readers: one ``compile`` however many
algorithm instances are built, a traceback that shows the generated line,
and a DESIGN listing that is the table's own output.
"""

import itertools
import linecache
import random
import re
import traceback
from pathlib import Path

import pytest

from repro.baselines import ChoySinghDiners
from repro.baselines.fork_ordering import FORK_ORDERING
from repro.baselines.hygienic import HYGIENIC
from repro.core import (
    FIGURE1,
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    WrongDiameterDiners,
    figure1,
)
from repro.core.figure1 import view_program
from repro.sim import System, binary_tree, complete, grid, line, ring, star
from repro.verification import TransitionSystem, enumerate_configurations

from .figure1_oracle import oracle_for

SMALL = {"line3": line(3), "ring3": ring(3), "star3": star(3)}
LARGER = {
    "line5": line(5),
    "ring5": ring(5),
    "star4": star(4),
    "complete4": complete(4),
    "tree2": binary_tree(2),
    "grid2x3": grid(2, 3),
}

#: name -> algorithm for a topology, depth capped (``None``: uncapped)
ALGORITHMS = {
    "na-diners": lambda topo, cap: NADiners(depth_cap=cap),
    "wrong-D": lambda topo, cap: WrongDiameterDiners(
        max(0, topo.diameter - 1), depth_cap=cap
    ),
    "no-fixdepth": lambda topo, cap: NoFixdepthDiners(depth_cap=cap),
    "no-threshold": lambda topo, cap: NoDynamicThresholdDiners(depth_cap=cap),
}


@pytest.mark.parametrize("cap", [3, None])
def test_choy_singh_is_the_no_fixdepth_program(cap):
    # Not a fifth row of the battery below: it inherits the table, so its
    # actions are the very functions checked for ``no-fixdepth``.
    assert ChoySinghDiners.table is NoFixdepthDiners.table
    assert ChoySinghDiners(depth_cap=cap).actions() is (
        NoFixdepthDiners(depth_cap=cap).actions()
    )


def pair(topo, algorithm):
    """The derived and the hand-written transition systems, and an assert
    that they agree at one configuration."""
    derived = TransitionSystem(algorithm, topo)
    oracle = TransitionSystem(oracle_for(algorithm), topo)

    def agree(config):
        assert derived.successors(config) == oracle.successors(config)

    return agree


@pytest.mark.parametrize("topology", ["line3", "ring3"])
def test_every_state_of_the_papers_program(topology):
    topo = SMALL[topology]
    algorithm = NADiners(depth_cap=topo.diameter + 1)
    agree = pair(topo, algorithm)
    for config in enumerate_configurations(algorithm, topo):
        agree(config)


#: strides are primes dividing no domain size, so every value of every
#: variable (and every orientation of every edge) is visited
@pytest.mark.parametrize(
    "topology, stride", [("line3", 13), ("ring3", 13), ("star3", 769)]
)
def test_state_space_at_a_stride(topology, stride):
    topo = SMALL[topology]
    cap = topo.diameter + 1
    # One walk for all: capped alike, the programs share their domains.
    checks = [pair(topo, make(topo, cap)) for make in ALGORITHMS.values()]
    crashed = pair(topo, NADiners(depth_cap=cap))
    dead, malicious = topo.nodes[0], topo.nodes[1]
    visited = 0
    for config in itertools.islice(
        enumerate_configurations(NADiners(depth_cap=cap), topo), 0, None, stride
    ):
        for agree in checks:
            agree(config)
        crashed(config.replace(dead=(dead,), malicious=(malicious,)))
        visited += 1
    assert visited >= 3000


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("topology", LARGER)
def test_random_arbitrary_states(topology, algorithm):
    topo = LARGER[topology]
    rng = random.Random(f"{topology}/{algorithm}")
    fired = set()
    for cap in (topo.diameter + 1, None):
        algo = ALGORITHMS[algorithm](topo, cap)
        derived = TransitionSystem(algo, topo)
        oracle = TransitionSystem(oracle_for(algo), topo)
        scratch = System(topo, algo)
        for _ in range(1000):
            scratch.randomize(rng)
            config = scratch.snapshot().replace(
                dead=[p for p in topo.nodes if rng.random() < 0.15],
                malicious=[p for p in topo.nodes if rng.random() < 0.1],
            )
            assert derived.enabled(config) == oracle.enabled(config)
            successors = derived.successors(config)
            assert successors == oracle.successors(config)
            fired.update(t.action for t in successors)
    assert fired == set(algo.table.names)  # every row ran, not just compiled


# ------------------------------------------------- what generated code owes


def test_a_hundred_algorithms_compile_once(monkeypatch):
    compiles = []

    def counting(source, filename, mode):
        compiles.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(figure1, "compile", counting, raising=False)
    # Caps nothing else uses, rather than ``view_program.cache_clear()``:
    # algorithms built before a clear would stop matching their own table.
    built = [NADiners(depth_cap=41) for _ in range(100)]
    assert len(compiles) == 1
    assert len({id(algo.actions()) for algo in built}) == 1
    # A different cap, D or table is a different program; a subclass that
    # edits nothing is not.
    NADiners(depth_cap=42)
    WrongDiameterDiners(2, depth_cap=41)
    NoFixdepthDiners(depth_cap=41)
    ChoySinghDiners(depth_cap=41)
    assert len(compiles) == 4
    for said in (
        "cap=41 D=diameter", "cap=42 D=diameter", "cap=41 D=2",
        "join+leave+enter+exit cap=41",
    ):
        assert any(said in filename for filename in compiles)


def test_a_raising_guard_shows_its_generated_line():
    guard = NADiners(depth_cap=5).action_named("fixdepth").guard
    filename = guard.__code__.co_filename
    assert "figure1 view" in filename and "cap=5" in filename
    with pytest.raises(AttributeError) as caught:
        guard(object())  # not a view
    shown = "".join(traceback.format_exception(caught.value))
    assert filename in shown
    assert "return view.get('depth') < prop(view)" in shown


def test_source_touches_only_the_public_view_surface():
    guard = view_program(FIGURE1, 3, None)[0].guard
    source = "".join(linecache.getlines(guard.__code__.co_filename))
    assert "def fixdepth_guard(view):" in source
    assert not re.search(r"view\._", source)
    assert set(re.findall(r"view\.(\w+)", source)) == {
        "get", "peek", "edge_value", "set", "set_edge", "neighbors", "pid",
        "diameter",
    }


def test_design_shows_the_tables_own_listing():
    design = Path(__file__).resolve().parents[2] / "DESIGN.md"
    block = re.search(
        r"<!-- FIGURE1.listing\(\) -->\n```\n(.*?)\n```", design.read_text(), re.S
    )
    assert block and block[1] == FIGURE1.listing()


def test_design_shows_the_fork_tables_own_listing():
    # ...and the other baseline written as a table, hygienic's.
    design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
    for name, table in (("FORK_ORDERING", FORK_ORDERING), ("HYGIENIC", HYGIENIC)):
        block = re.search(
            rf"<!-- {name}.listing\(\) -->\n```\n(.*?)\n```", design, re.S
        )
        assert block and block[1] == table.listing(), name
