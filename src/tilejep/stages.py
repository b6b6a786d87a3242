"""The three pipeline stages, one record each.

The reduction runs in three stages: colored classes (``unary``), the wheel
encoding into plain graphs (``pure``) and the guarded homomorphism stage
(``jhp``).  Each stage is used the same way: compile its class, encode the
colored canonical models into its language, join two members by its
joint-embedding procedure, and decode a joint for the tiling readout.
``STAGES`` answers each of these for every stage, so the experiment
drivers, the command line and the bundle reader name no stage themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .core import ColoredGraph
from .encoding import EncodingScheme, compile_pure_class, complete_and_joint_embed_pure, vee, wedge
from .jhp import augment, compile_jhp_class
from .unary import DUMMY, GUARD, PALETTE_STAGE1, compile_unary_class, joint_embed_unary


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    ``compile(problem)`` builds its class.  ``encode(g)`` carries a colored
    canonical model into the stage's language, and ``decode(g)`` carries a
    graph of that language back to the colored graph the readout reads.
    ``join(a, b, problem, theta, cls, check)`` is the stage's
    joint-embedding procedure; with ``check`` it first requires both
    factors to be members.  ``scheme`` is the wheel encoding, None for the
    colored stage.
    """

    name: str
    palette: tuple
    scheme: Optional[EncodingScheme]
    compile: Callable
    encode: Callable
    decode: Callable
    join: Callable


def _same(g: ColoredGraph) -> ColoredGraph:
    return g


def _augmented(g: ColoredGraph) -> ColoredGraph:
    return augment(g).graph


def _join_colored(a, b, problem, theta, cls, check):
    return joint_embed_unary(a, b, theta, problem, cls, check=check)


def _encoded(name: str, palette: tuple, compile: Callable, prepare: Callable) -> Stage:
    """A stage of the wheel encoding: ``prepare`` then ``wedge`` encodes,
    ``vee`` decodes, and the pure procedure joins."""
    scheme = EncodingScheme(palette)

    def encode(g):
        return wedge(prepare(g), scheme)

    def join(a, b, problem, theta, cls, check):
        return complete_and_joint_embed_pure(a, b, problem, theta, stage=name, cls=cls, check=check)

    return Stage(name, palette, scheme, compile, encode, partial(vee, scheme=scheme), join)


STAGES = {s.name: s for s in (
    Stage("unary", PALETTE_STAGE1, None, compile_unary_class, _same, _same, _join_colored),
    _encoded("pure", PALETTE_STAGE1 + (DUMMY,), compile_pure_class, _same),
    _encoded("jhp", PALETTE_STAGE1 + (GUARD, DUMMY), compile_jhp_class, _augmented),
)}
