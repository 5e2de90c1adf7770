"""Labeled Petri nets with silent transitions and token-game semantics.

Nets and markings are immutable. Arc multiplicities are fixed at 1 (ordinary
arcs only). A net is well-formed by construction: ``PetriNet`` raises
PetriNetError for a repeated id or arc, an arc that does not join a known place
and a known transition, and a marking on an unknown place.

The token game is played once, by ``CompiledNet`` (``PetriNet.compiled``):
places become indices, markings vectors of token counts in one form
(``_canonical``), and transitions are numbered in sorted-id order, so index
sequences sort like id sequences, and each transition's preset and postset are
read off the arcs. Its ``fire`` creates missing tokens and reports them; replay
and the simulator both go through it, and the simulator takes a transition that
misses none as enabled.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property

from .errors import PetriNetError, PnmlFormatError


class Marking:
    """Immutable multiset of tokens over place ids (zero counts dropped)."""

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[str, int] | None = None):
        cleaned: dict[str, int] = {}
        for place, count in (counts or {}).items():
            if not isinstance(count, int):
                raise ValueError(f"token count {count!r} for place {place!r} is not an integer")
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
        """Canonical hashable form: (place, count) pairs sorted by place id."""
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
        place_set, tids = set(self.places), {t.id for t in self.transitions}
        if place_set & tids:
            raise PetriNetError("place and transition ids must be disjoint")
        for source, target in self.arcs:
            if not (source in place_set and target in tids
                    or source in tids and target in place_set):
                raise PetriNetError(f"arc {source!r} -> {target!r} must join a known place "
                                    "and a known transition")
        for kind, marking in (("initial", self.initial_marking), ("final", self.final_marking)):
            unknown = marking.places() - place_set
            if unknown:
                raise PetriNetError(f"{kind} marking references unknown places: {sorted(unknown)}")

    @cached_property
    def compiled(self) -> CompiledNet:
        """The net's integer form, built on first use and kept with the net."""
        return CompiledNet(self)


def _canonical(counts) -> bytes | tuple[int, ...]:
    """A marking vector in its one form: bytes when every count fits in a byte (33 B and
    a byte a place, where a tuple takes 56 B and 8), a tuple otherwise."""
    try:
        return bytes(counts)
    except ValueError:  # a count above 255
        return tuple(counts)


class CompiledNet:
    """Integer form of a net for the token game; markings are ``_canonical`` vectors."""

    def __init__(self, net: PetriNet):
        self.place_ids = net.places
        self.place_index = {place: i for i, place in enumerate(self.place_ids)}
        order = sorted(net.transitions, key=lambda t: t.id)
        self.tids = tuple(t.id for t in order)
        self.index = {tid: i for i, tid in enumerate(self.tids)}
        self.labels = tuple(t.label for t in order)
        pre, post = [[] for _ in self.tids], [[] for _ in self.tids]
        for source, target in net.arcs:  # presets and postsets in arc order
            if source in self.index:
                post[self.index[source]].append(self.place_index[target])
            else:
                pre[self.index[target]].append(self.place_index[source])
        self.pre, self.post = tuple(map(tuple, pre)), tuple(map(tuple, post))
        self.initial, self.final = self.vector(net.initial_marking), self.vector(net.final_marking)

    def vector(self, marking: Marking) -> bytes | tuple[int, ...]:
        counts = [0] * len(self.place_ids)
        for place, count in marking.items():
            counts[self.place_index[place]] = count
        return _canonical(counts)

    def marking(self, vector: bytes | tuple[int, ...]) -> Marking:
        return Marking({self.place_ids[i]: n for i, n in enumerate(vector) if n})

    def fire(self, vector: bytes | tuple[int, ...], t: int
             ) -> tuple[bytes | tuple[int, ...], tuple[int, ...]]:
        """Fire transition index ``t``: (successor, missing input place indices).

        Missing input tokens are created on the fly and reported; the input vector is
        unchanged. A bytes vector fires on a bytearray copy, any other on a list, and
        the successor comes back in the ``_canonical`` form.
        """
        counts = bytearray(vector) if type(vector) is bytes else list(vector)
        missing = ()  # no tuple is built unless a token is missing
        for p in self.pre[t]:
            if counts[p]:
                counts[p] -= 1
            else:
                missing += (p,)
        post = self.post[t]
        try:
            for p in post:
                counts[p] += 1
        except ValueError:  # a count above 255: carry on in a list (no place is in post twice)
            counts = list(counts)
            for p in post[post.index(p):]:
                counts[p] += 1
        return _canonical(counts), missing


# --- PNML reading -------------------------------------------------------------

def _token_count(text: str, place: str) -> int:
    if not text.strip().isdecimal():
        raise PnmlFormatError(f"bad token count {text!r} for place {place!r}")
    return int(text)


def parse_pnml(text: str) -> PetriNet:
    """Parse PNML as ProM and pm4py write it, in any namespace or none.

    A transition with a ``<toolspecific activity="$invisible$">`` child is silent (how ProM
    and pm4py mark one). A document with more than one ``<net>``, a net with more than one
    final ``<marking>`` and an arc inscribed with a weight other than 1 are refused.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise PnmlFormatError(f"malformed PNML: {exc.msg.split(':')[0]}", line=line, column=column)
    if root.tag.rpartition("}")[2] != "pnml":
        raise PnmlFormatError("expected <pnml> root element")
    nets = root.findall(".//{*}net")
    if not nets:
        raise PnmlFormatError("no <net> element found")
    if len(nets) > 1:
        raise PnmlFormatError(f"{len(nets)} <net> elements found; careflow reads one")
    net_xml = nets[0]

    places: list[str] = []
    initial: dict[str, int] = {}
    for place in net_xml.iterfind(".//{*}place"):
        pid = place.get("id")
        if pid is None:
            if place.get("idref") is not None:
                continue  # final-marking reference, read below
            raise PnmlFormatError("<place> without id")
        places.append(pid)
        tokens = place.findtext("{*}initialMarking/{*}text")
        if tokens:
            initial[pid] = _token_count(tokens, pid)
    transitions: list[Transition] = []
    for trans in net_xml.iterfind(".//{*}transition"):
        tid = trans.get("id")
        if tid is None:
            raise PnmlFormatError("<transition> without id")
        label = trans.findtext("{*}name/{*}text") or None
        if trans.find("{*}toolspecific[@activity='$invisible$']") is not None:
            label = None
        transitions.append(Transition(tid, label))
    arcs: list[tuple[str, str]] = []
    for arc in net_xml.iterfind(".//{*}arc"):
        source, target = arc.get("source"), arc.get("target")
        if source is None or target is None:
            raise PnmlFormatError("<arc> without source/target")
        weight = arc.findtext("{*}inscription/{*}text")
        if weight is not None and weight.strip() != "1":
            raise PnmlFormatError(f"arc {source!r} -> {target!r} has weight {weight!r}; "
                                  "only ordinary arcs (weight 1) are supported")
        arcs.append((source, target))
    markings = net_xml.findall(".//{*}marking")
    if len(markings) > 1:  # merged, they would make a marking no run reaches
        raise PnmlFormatError(f"{len(markings)} final markings found; replay needs one")
    final: dict[str, int] = {}
    for ref in net_xml.iterfind(".//{*}marking/{*}place[@idref]"):
        pid, tokens = ref.get("idref"), ref.findtext("{*}text")
        if pid and tokens:
            final[pid] = _token_count(tokens, pid)
    try:
        return PetriNet(tuple(places), tuple(transitions), tuple(arcs),
                        Marking(initial), Marking(final), name=net_xml.get("id") or "")
    except PetriNetError as exc:
        raise PnmlFormatError(str(exc))

