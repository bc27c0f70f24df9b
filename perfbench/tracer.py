"""Call counters and spans around the public functions of hopfs3 modules.

The tracer wraps functions from the outside, so the program is unchanged.
A function imported by name into other modules (``from .rewrite import
sigma``) has one reference per importing module; the tracer replaces every
reference it finds in every loaded ``hopfs3`` module and in the owning
class, and puts the originals back on exit.

Two kinds of wrapper:

* a counter adds one to ``<name>.calls`` per call and nothing else, for
  functions called hundreds of thousands of times per item;
* a span times the call.  Spans nest: each one knows its parent, so a
  span's self time is its duration minus the time of the spans directly
  inside it.  Spans of one item share the item id.

Spans named in ``AGGREGATED`` are timed and nested like the others but
are not stored one by one: they run hundreds of thousands of times per
item, so only their per-item totals are kept.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, owner inside the module or None, attribute, kind)
TARGETS = (
    ("groups.perm_mul", "groups", "Perm", "__mul__", "count"),
    ("groups.perm_new", "groups", "Perm", "__new__", "count"),
    ("scalars.multipoly_mul", "scalars", "MultiPoly", "__mul__", "count"),
    ("scalars.multipoly_add", "scalars", "MultiPoly", "__add__", "count"),
    ("rewrite.sigma", "rewrite", None, "sigma", "count"),
    ("rewrite.mult_basis", "rewrite", "MultTable", "mult_basis", "count"),
    ("rewrite.default_rules", "rewrite", None, "default_rules", "count"),
    ("rewrite.reduce_term", "rewrite", "RuleSystem", "reduce_term", "span"),
    ("rewrite.smash_mult", "rewrite", None, "smash_mult", "span"),
    ("rewrite.resolve_ambiguity", "rewrite", None, "resolve_ambiguity", "span"),
    ("rewrite.structure_constants", "rewrite", None, "structure_constants",
     "span"),
    ("rewrite.check_associativity", "rewrite", None, "check_associativity",
     "span"),
    ("rewrite.complete", "rewrite", None, "complete", "span"),
    ("rewrite.irreducible_words", "rewrite", None, "irreducible_words", "span"),
    ("hopf72.build", "hopf72", None, "build", "span"),
    ("hopf72.tensor_mult", "hopf72", "Hopf72", "tensor_mult", "span"),
    ("hopf72.verify_hopf_axioms", "hopf72", None, "verify_hopf_axioms", "span"),
    ("hopf72.verify_hopf_ideal", "hopf72", None, "verify_hopf_ideal", "span"),
    ("hopf72.lemma31_suite", "hopf72", None, "lemma31_suite", "span"),
    ("hopf72.coradical_certificate", "hopf72", None, "coradical_certificate",
     "span"),
    ("hopf72.gr_check", "hopf72", None, "gr_check", "span"),
    ("hopf72.c_identity", "hopf72", None, "c_identity", "span"),
    ("hopf72.adjoint_isotypics", "hopf72", None, "adjoint_isotypics", "span"),
    ("classify.canonical_rep", "classify", None, "canonical_rep", "span"),
    ("classify.verify_iso", "classify", None, "verify_iso", "span"),
    ("linalg.rank", "linalg", None, "rank", "span"),
    ("braidedtensor.quadratic_relations", "braidedtensor", None,
     "quadratic_relations", "span"),
    ("cli.main", "cli", None, "main", "span"),
)

AGGREGATED = frozenset({"rewrite.reduce_term", "rewrite.smash_mult",
                        "hopf72.tensor_mult"})

ITEM = "item"
PACKAGE = "hopfs3"


class Tracer:
    """Install with ``with Tracer(): ...``; run each item with ``run_item``.

    Per item the tracer keeps ``counts[name]`` (calls), ``total[name]``
    (time inside outermost calls) and ``self[name]`` (self time), plus
    ``seen`` for the repeat ratio of ``reduce_term`` keys.  ``spans``
    holds ``(item_id, span_id, parent_id, name, start, end)`` for every
    span not in ``AGGREGATED``.
    """

    def __init__(self):
        self._undo: list = []
        self._stack: list = []      # [name, span_id, start, child_time]
        self._next_span = 0
        self.item_id = -1
        self.spans: list = []
        self.items: list = []       # per-item dicts, see run_item()
        self._cur = None

    # -- installing and removing wrappers ---------------------------------

    def __enter__(self):
        mods = {name[len(PACKAGE) + 1:]: mod
                for name, mod in list(sys.modules.items())
                if name.startswith(PACKAGE + ".") and mod is not None}
        holders = list(mods.values())
        try:
            for prefix, modname, owner, attr, kind in TARGETS:
                mod = mods.get(modname)
                if mod is None:
                    continue
                if owner is None:
                    orig = mod.__dict__.get(attr)
                    if orig is None:
                        continue
                    wrapper = self._wrap(prefix, orig, kind)
                    for holder in holders:
                        self._replace_refs(holder.__dict__, orig, wrapper,
                                           holder)
                else:
                    cls = mod.__dict__.get(owner)
                    if cls is None or attr not in cls.__dict__:
                        continue
                    orig = cls.__dict__[attr]
                    if isinstance(orig, staticmethod):
                        wrapper = staticmethod(
                            self._wrap(prefix, orig.__func__, kind))
                    else:
                        wrapper = self._wrap(prefix, orig, kind)
                    self._replace_refs(dict(cls.__dict__), orig, wrapper, cls)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _replace_refs(self, namespace: dict, orig, wrapper, holder):
        for name, value in list(namespace.items()):
            if value is orig:
                self._undo.append((holder, name, orig))
                setattr(holder, name, wrapper)

    def _restore(self):
        while self._undo:
            holder, name, orig = self._undo.pop()
            setattr(holder, name, orig)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        if kind == "count":
            return self._counter(name, fn)
        if name == "rewrite.reduce_term":
            return self._reduce_term_span(name, fn)
        return self._span(name, fn)

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cur = tracer._cur
            if cur is not None:
                cur["counts"][name] = cur["counts"].get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tracer._cur is None:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return spanned

    def _reduce_term_span(self, name, fn):
        """Span that also records whether (system, word, g) was seen
        before in this item.  The key holds the system itself, so a
        system freed mid-item cannot hand its id to a new one."""
        tracer = self

        @functools.wraps(fn)
        def reduce_term(system, word, g, *args, **kwargs):
            cur = tracer._cur
            if cur is None:
                return fn(system, word, g, *args, **kwargs)
            key = (system, tuple(word), g)
            seen = cur["seen"]
            if key in seen:
                cur["counts"]["rewrite.reduce_term.repeats"] = (
                    cur["counts"].get("rewrite.reduce_term.repeats", 0) + 1)
            else:
                seen.add(key)
            tracer._open(name)
            try:
                return fn(system, word, g, *args, **kwargs)
            finally:
                tracer._close()
        return reduce_term

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        cur = self._cur
        cur["counts"][name] = cur["counts"].get(name, 0) + 1
        self._next_span += 1
        self._stack.append([name, self._next_span, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        name, span_id, start, child = self._stack.pop()
        dur = end - start
        cur = self._cur
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_id = parent[1]
        else:
            parent_id = None
        if not any(frame[0] == name for frame in self._stack):
            cur["total"][name] = cur["total"].get(name, 0.0) + dur
        cur["self"][name] = cur["self"].get(name, 0.0) + dur - child
        if name not in AGGREGATED:
            self.spans.append((self.item_id, span_id, parent_id, name,
                               start, end))

    def run_item(self, fn, *args):
        """Call ``fn(*args)`` as one traced item under a root span."""
        self.item_id += 1
        self._cur = {"counts": {}, "total": {}, "self": {}, "seen": set()}
        self._open(ITEM)
        try:
            return fn(*args)
        finally:
            self._close()
            cur, self._cur = self._cur, None
            del cur["seen"]
            self.items.append(cur)
