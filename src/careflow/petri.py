"""Labeled Petri nets with silent transitions and token-game semantics.

Nets and markings are immutable. Arc multiplicities are fixed at 1 (ordinary
arcs only). A net is well-formed by construction: ``PetriNet`` raises
PetriNetError for a repeated id or arc, an arc that does not join a known place
and a known transition, and a marking on an unknown place.

The token game is played once, by ``CompiledNet`` (``PetriNet.compiled``):
places become indices, markings tuples of token counts, and transitions are
numbered in sorted-id order, so index sequences sort like id sequences. Its
``fire`` creates missing tokens and reports them, or in strict mode raises
NotEnabledError; replay and the simulator both go through it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property
from xml.sax.saxutils import escape, quoteattr

from .errors import NotEnabledError, PetriNetError, PnmlFormatError
from .xesio import _local


class Marking:
    """Immutable multiset of tokens over place ids (zero counts dropped)."""

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[str, int] | None = None):
        cleaned: dict[str, int] = {}
        for place, count in (counts or {}).items():
            if count < 0:
                raise ValueError(f"negative token count for place {place!r}")
            if count > 0:
                cleaned[place] = count
        self._counts = cleaned

    def get(self, place: str) -> int:
        return self._counts.get(place, 0)

    def items(self):
        return self._counts.items()

    def places(self) -> frozenset[str]:
        return frozenset(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def key(self) -> tuple[tuple[str, int], ...]:
        """Canonical hashable form, used by searches over marking space."""
        return tuple(sorted(self._counts.items()))

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Marking) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{n}" for p, n in sorted(self._counts.items()))
        return "{" + inner + "}"


@dataclass(frozen=True)
class Transition:
    """A transition; label None means silent (routes tokens, emits no event)."""

    id: str
    label: str | None = None

    @property
    def silent(self) -> bool:
        return self.label is None


@dataclass(frozen=True)
class PetriNet:
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]
    arcs: tuple[tuple[str, str], ...]
    initial_marking: Marking = field(default_factory=Marking)
    final_marking: Marking = field(default_factory=Marking)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "arcs", tuple(self.arcs))
        for kind, items in (("place id", self.places),
                            ("transition id", (t.id for t in self.transitions)), ("arc", self.arcs)):
            seen = set()
            for item in items:
                if item in seen:
                    raise PetriNetError(f"repeated {kind} {item!r}")
                seen.add(item)
        place_set = set(self.places)
        by_id = {t.id: t for t in self.transitions}
        if place_set & set(by_id):
            raise PetriNetError("place and transition ids must be disjoint")
        inputs: dict[str, tuple[str, ...]] = {t.id: () for t in self.transitions}
        outputs: dict[str, tuple[str, ...]] = {t.id: () for t in self.transitions}
        for source, target in self.arcs:
            if source in place_set and target in by_id:
                inputs[target] = inputs[target] + (source,)
            elif source in by_id and target in place_set:
                outputs[source] = outputs[source] + (target,)
            else:
                raise PetriNetError(f"arc {source!r} -> {target!r} must join a known place "
                                    "and a known transition")
        for kind, marking in (("initial", self.initial_marking), ("final", self.final_marking)):
            unknown = marking.places() - place_set
            if unknown:
                raise PetriNetError(f"{kind} marking references unknown places: {sorted(unknown)}")
        object.__setattr__(self, "_inputs", inputs)
        object.__setattr__(self, "_outputs", outputs)

    def inputs(self, tid: str) -> tuple[str, ...]:
        """Input places of a transition (preset)."""
        return self._inputs[tid]

    def outputs(self, tid: str) -> tuple[str, ...]:
        """Output places of a transition (postset)."""
        return self._outputs[tid]

    @cached_property
    def compiled(self) -> CompiledNet:
        """The net's integer form, built on first use and kept with the net."""
        return CompiledNet(self)


class CompiledNet:
    """Integer form of a net for the token game; markings are count tuples."""

    def __init__(self, net: PetriNet):
        self.place_ids = net.places
        self.place_index = {place: i for i, place in enumerate(self.place_ids)}
        order = sorted(net.transitions, key=lambda t: t.id)
        self.tids = tuple(t.id for t in order)
        self.index = {tid: i for i, tid in enumerate(self.tids)}
        self.labels = tuple(t.label for t in order)
        self.pre = tuple(tuple(self.place_index[p] for p in net.inputs(tid)) for tid in self.tids)
        self.post = tuple(tuple(self.place_index[p] for p in net.outputs(tid)) for tid in self.tids)
        self.initial, self.final = self.vector(net.initial_marking), self.vector(net.final_marking)

    def vector(self, marking: Marking) -> tuple[int, ...]:
        counts = [0] * len(self.place_ids)
        for place, count in marking.items():
            counts[self.place_index[place]] = count
        return tuple(counts)

    def marking(self, vector: tuple[int, ...]) -> Marking:
        return Marking({self.place_ids[i]: n for i, n in enumerate(vector) if n})

    def enabled(self, vector: tuple[int, ...]) -> list[int]:
        """Indices of transitions that fire without missing tokens, in id order."""
        return [t for t in range(len(self.tids)) if not self.fire(vector, t)[1]]

    def fire(self, vector: tuple[int, ...], t: int,
             strict: bool = False) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Fire transition index ``t``: (successor, missing input place indices).

        Missing input tokens are created on the fly and reported, or, when
        ``strict``, NotEnabledError is raised. The input tuple is unchanged.
        """
        counts = list(vector)
        missing = []
        for p in self.pre[t]:
            if counts[p]:
                counts[p] -= 1
            else:
                missing.append(p)
        if missing and strict:
            raise NotEnabledError(self.tids[t], frozenset(self.place_ids[p] for p in missing))
        for p in self.post[t]:
            counts[p] += 1
        return tuple(counts), tuple(missing)


# --- PNML-style serialization -------------------------------------------------

def write_pnml(net: PetriNet) -> str:
    """Serialize the net as PNML with a <finalmarkings> section."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<pnml>',
             f'  <net id={quoteattr(net.name or "net1")} type="http://www.pnml.org/version-2009/grammar/ptnet">',
             '    <page id="page1">']
    for place in net.places:
        lines.append(f'      <place id={quoteattr(place)}>')
        tokens = net.initial_marking.get(place)
        if tokens:
            lines.append(f'        <initialMarking><text>{tokens}</text></initialMarking>')
        lines.append('      </place>')
    for trans in net.transitions:
        lines.append(f'      <transition id={quoteattr(trans.id)}>')
        if trans.label is not None:
            lines.append(f'        <name><text>{escape(trans.label)}</text></name>')
        lines.append('      </transition>')
    for index, (source, target) in enumerate(net.arcs, start=1):
        lines.append(f'      <arc id="a{index}" source={quoteattr(source)} target={quoteattr(target)}/>')
    lines.append('    </page>')
    lines.append('    <finalmarkings>')
    lines.append('      <marking>')
    for place, count in sorted(net.final_marking.items()):
        lines.append(f'        <place idref={quoteattr(place)}><text>{count}</text></place>')
    lines.append('      </marking>')
    lines.append('    </finalmarkings>')
    lines.append('  </net>')
    lines.append('</pnml>')
    lines.append('')
    return "\n".join(lines)


def _token_count(text: str, place: str) -> int:
    if not text.strip().isdecimal():
        raise PnmlFormatError(f"bad token count {text!r} for place {place!r}")
    return int(text)


def parse_pnml(text: str) -> PetriNet:
    """Parse a PNML document written by write_pnml (or a compatible subset)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise PnmlFormatError(f"malformed PNML: {exc}")
    if _local(root.tag) != "pnml":
        raise PnmlFormatError("expected <pnml> root element")
    net_xml = next((c for c in root.iter() if _local(c.tag) == "net"), None)
    if net_xml is None:
        raise PnmlFormatError("no <net> element found")

    places: list[str] = []
    transitions: list[Transition] = []
    arcs: list[tuple[str, str]] = []
    initial: dict[str, int] = {}
    final: dict[str, int] = {}
    for elem in net_xml.iter():
        tag = _local(elem.tag)
        if tag == "place":
            pid = elem.get("id")
            if pid is None:
                if elem.get("idref") is not None:
                    continue  # final-marking reference, handled under <marking>
                raise PnmlFormatError("<place> without id")
            places.append(pid)
            for child in elem.iter():
                if _local(child.tag) == "initialMarking":
                    text_elem = next((c for c in child.iter() if _local(c.tag) == "text"), None)
                    if text_elem is not None and text_elem.text:
                        initial[pid] = _token_count(text_elem.text, pid)
        elif tag == "transition":
            tid = elem.get("id")
            if tid is None:
                raise PnmlFormatError("<transition> without id")
            label = None
            name_elem = next((c for c in elem.iter() if _local(c.tag) == "name"), None)
            if name_elem is not None:
                text_elem = next((c for c in name_elem.iter() if _local(c.tag) == "text"), None)
                if text_elem is not None and text_elem.text:
                    label = text_elem.text
            transitions.append(Transition(tid, label))
        elif tag == "arc":
            source, target = elem.get("source"), elem.get("target")
            if source is None or target is None:
                raise PnmlFormatError("<arc> without source/target")
            arcs.append((source, target))
        elif tag == "marking":
            for ref in elem.iter():
                if _local(ref.tag) == "place":
                    pid = ref.get("idref")
                    text_elem = next((c for c in ref.iter() if _local(c.tag) == "text"), None)
                    if pid and text_elem is not None and text_elem.text:
                        final[pid] = _token_count(text_elem.text, pid)
    try:
        return PetriNet(tuple(places), tuple(transitions), tuple(arcs),
                        Marking(initial), Marking(final), name=net_xml.get("id") or "")
    except PetriNetError as exc:
        raise PnmlFormatError(str(exc))


def _dot(text: str) -> str:
    """``text`` as a quoted DOT string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def net_to_dot(net: PetriNet) -> str:
    """Deterministic DOT rendering: circles for places, boxes for transitions,
    filled boxes for silent transitions."""
    lines = ["digraph petri_net {", "  rankdir=LR;"]
    for place in sorted(net.places):
        tokens = net.initial_marking.get(place)
        shade = net.final_marking.get(place)
        label = place + (f" ({tokens})" if tokens else "")
        style = ' style=filled fillcolor="gray85"' if shade else ""
        lines.append(f'  {_dot(place)} [shape=circle label={_dot(label)}{style}];')
    for trans in sorted(net.transitions, key=lambda t: t.id):
        if trans.silent:
            lines.append(f'  {_dot(trans.id)} [shape=box style=filled fillcolor=black label=""];')
        else:
            lines.append(f'  {_dot(trans.id)} [shape=box label={_dot(trans.label)}];')
    for source, target in sorted(net.arcs):
        lines.append(f'  {_dot(source)} -> {_dot(target)};')
    lines.append("}")
    lines.append("")
    return "\n".join(lines)
