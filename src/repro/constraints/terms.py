"""Terms of the constraint language: variables, constants and substitutions.

The paper's constrained atoms ``A(X̄) <- φ`` and mediator clauses are built
from *terms*.  A term is either a :class:`Variable` or a :class:`Constant`
wrapping an arbitrary hashable Python value (strings, numbers, tuples used as
records, ...).

Terms are **hash-consed** (see :mod:`repro.constraints.intern`): ``__new__``
interns every construction, so two structurally equal terms are the same
object, equality is pointer identity, and the hash is computed once.  The
classes stay immutable; ``copy``/``deepcopy`` return the receiver and
unpickling re-interns.

Substitutions map variables to terms and are used for unification-free
parameter passing: the fixpoint operators of the paper never unify -- they add
explicit equality constraints ``X = t`` instead -- but renaming-apart and
binding application still need substitutions.
"""

from __future__ import annotations

import itertools
import re
from typing import (
    Container,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

from repro.constraints.intern import table
from repro.errors import TermError

_VARIABLE_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")

_VARIABLES = table("variable")
_CONSTANTS = table("constant")


class _InternedTerm:
    """Shared machinery of interned term nodes.

    Subclasses intern in ``__new__``; equality is the default pointer
    identity, the structural hash is cached in ``_hash`` at construction,
    and instances are deeply immutable (``__setattr__`` raises).
    """

    __slots__ = ("_hash", "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise TermError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise TermError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Variable(_InternedTerm):
    """A logical variable, identified by its name.

    Variables are immutable and hashable; two variables with the same name
    are the *same object*.  Names must look like identifiers (optionally
    with a prime suffix such as ``X'`` which the paper uses when
    standardizing apart).  Variables order by name, matching the old
    dataclass ``order=True`` behaviour.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Variable":
        if not isinstance(name, str) or not _VARIABLE_NAME_RE.match(name):
            raise TermError(f"invalid variable name: {name!r}")

        def build() -> "Variable":
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "_hash", hash(("var", name)))
            return self

        return _VARIABLES.intern(name, build)

    def __reduce__(self):
        return (Variable, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    # Ordering (by name), as the frozen dataclass's order=True provided.
    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name <= other.name

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name > other.name

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name >= other.name


class Constant(_InternedTerm):
    """A constant term wrapping a hashable Python value.

    The intern key is ``(type(value), value)``: ``Constant(1)``,
    ``Constant(True)`` and ``Constant(1.0)`` are distinct nodes (they render
    differently and the solver compares *values* where numeric equality
    matters, see ``_compare_values``).
    """

    __slots__ = ("value",)

    def __new__(cls, value: Hashable) -> "Constant":
        try:
            value_hash = hash(value)
        except TypeError as exc:
            raise TermError(
                f"constant value must be hashable: {value!r}"
            ) from exc
        key = (value.__class__, value)

        def build() -> "Constant":
            self = object.__new__(cls)
            object.__setattr__(self, "value", value)
            object.__setattr__(
                self, "_hash", hash(("const", value.__class__.__name__, value_hash))
            )
            return self

        return _CONSTANTS.intern(key, build)

    def __reduce__(self):
        return (Constant, (self.value,))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __lt__(self, other: "Constant") -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return _sort_key(self.value) < _sort_key(other.value)


Term = Union[Variable, Constant]


def _sort_key(value: Hashable) -> Tuple[str, str]:
    """Total order over heterogeneous constant values (for stable output)."""
    return (type(value).__name__, repr(value))


def make_term(value: object) -> Term:
    """Coerce *value* into a term.

    Existing terms are passed through.  Strings that start with an uppercase
    letter or an underscore are *not* treated specially here -- explicit
    construction or the parser decide what is a variable.  Everything else
    becomes a :class:`Constant`.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    return Constant(value)


class Substitution(Mapping[Variable, Term]):
    """An immutable mapping from variables to terms.

    Application is *not* recursive: a binding ``X -> Y`` followed by
    ``Y -> a`` is not chased.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[Variable, Term] | None = None) -> None:
        items: Dict[Variable, Term] = {}
        if bindings:
            for var, term in bindings.items():
                if not isinstance(var, Variable):
                    raise TermError(f"substitution keys must be variables: {var!r}")
                if not isinstance(term, (Variable, Constant)):
                    raise TermError(f"substitution values must be terms: {term!r}")
                items[var] = term
        self._bindings = items

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, key: Variable) -> Term:
        return self._bindings[key]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{var}: {term}" for var, term in sorted(
            self._bindings.items(), key=lambda item: item[0].name))
        return f"Substitution({{{inner}}})"

    # -- operations --------------------------------------------------------
    def apply(self, term: Term) -> Term:
        """Apply the substitution to a single term."""
        if isinstance(term, Variable):
            return self._bindings.get(term, term)
        return term

    def apply_all(self, terms: Iterable[Term]) -> Tuple[Term, ...]:
        """Apply the substitution to a sequence of terms.

        When nothing is bound -- the common renamed-apart no-op case -- the
        input tuple is returned unchanged, so callers can detect "no change"
        by pointer identity and keep sharing the original structure.
        """
        if not isinstance(terms, tuple):
            terms = tuple(terms)
        bindings = self._bindings
        if not bindings or not any(term in bindings for term in terms):
            return terms
        return tuple(bindings.get(term, term) for term in terms)


EMPTY_SUBSTITUTION = Substitution()


class FreshVariableFactory:
    """Produce fresh variables that cannot clash with a set of used names.

    The fixpoint operators and maintenance algorithms repeatedly need clause
    copies whose variables "share no variables" with the view (the paper's
    phrasing); this factory implements that standardizing-apart step.
    """

    def __init__(
        self,
        reserved: Iterable[str] = (),
        tables: Sequence[Container[str]] = (),
    ) -> None:
        """*reserved* names are copied; *tables* are consulted in place.

        A table is any container of names kept by someone else (a program's
        name set, a view shard's name table): a name found in one is as
        unavailable as a reserved one, without the factory copying it.
        """
        self._reserved = set(reserved)
        self._tables = tuple(tables)
        self._counter = itertools.count(1)

    def fresh(self, base: str = "V") -> Variable:
        """Return a variable whose name has not been produced or reserved."""
        stem = base.rstrip("0123456789_") or "V"
        while True:
            candidate = f"{stem}_{next(self._counter)}"
            if candidate in self._reserved:
                continue
            for table in self._tables:
                if candidate in table:
                    break
            else:
                self._reserved.add(candidate)
                return Variable(candidate)

    def renaming_for(self, variables: Iterable[Variable]) -> Substitution:
        """Return a substitution renaming *variables* to fresh ones."""
        bindings: Dict[Variable, Term] = {}
        for var in sorted(set(variables), key=lambda v: v.name):
            bindings[var] = self.fresh(var.name)
        return Substitution(bindings)
