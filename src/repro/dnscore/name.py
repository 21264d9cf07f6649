"""Domain names per RFC 1035: label sequences with case-insensitive match.

Names are immutable and hashable; all comparisons and hashing use the
lowercased form, while the original spelling is preserved for display.
"""

from __future__ import annotations

from typing import Iterable, Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


class NameError_(ValueError):
    """Raised for malformed domain names (trailing underscore avoids
    shadowing the builtin ``NameError``)."""


class Name:
    """An absolute domain name as a tuple of labels, root = empty tuple.

    ``Name.from_text("www.Example.NL")`` and
    ``Name.from_text("www.example.nl.")`` compare equal; ``str()`` always
    renders the absolute form with a trailing dot.
    """

    __slots__ = ("labels", "_key", "_hash")

    def __init__(self, labels: Iterable[str]) -> None:
        labels = tuple(labels)
        for label in labels:
            if not label:
                raise NameError_("empty label inside name")
            if len(label.encode("ascii", "strict")) > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long: {label!r}")
        wire_length = sum(len(label) + 1 for label in labels) + 1
        if wire_length > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({wire_length} octets)")
        self.labels: Tuple[str, ...] = labels
        self._key = tuple(label.lower() for label in labels)
        self._hash = hash(self._key)

    def __reduce__(self):
        # Labels only: a pickled ``_hash`` is salted by another process.
        return (Name, (self.labels,))

    # ------------------------------------------------------------------
    # Construction / rendering
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a dotted name; both relative-looking and absolute forms
        are treated as absolute (this library has no search lists)."""
        if text in (".", ""):
            return cls(())
        stripped = text[:-1] if text.endswith(".") else text
        if not stripped:
            raise NameError_(f"malformed name {text!r}")
        labels = stripped.split(".")
        if any(label == "" for label in labels):
            raise NameError_(f"empty label in {text!r}")
        return cls(labels)

    def to_text(self) -> str:
        """Absolute textual form, trailing dot included."""
        if not self.labels:
            return "."
        return ".".join(self.labels) + "."

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering compares from the rightmost label.
        return tuple(reversed(self._key)) < tuple(reversed(other._key))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return not self.labels

    def __len__(self) -> int:
        """Number of labels (the root name has zero)."""
        return len(self.labels)

    def parent(self) -> "Name":
        """The name with the leftmost label removed."""
        if not self.labels:
            raise NameError_("the root name has no parent")
        # A suffix of a valid name is valid: skip __init__'s checks.
        parent = Name.__new__(Name)
        parent.labels = self.labels[1:]
        parent._key = key = self._key[1:]
        parent._hash = hash(key)
        return parent

    def child(self, label: str) -> "Name":
        """Prepend ``label``, yielding a direct subdomain."""
        return Name((label,) + self.labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` is ``other`` or lies below it."""
        if len(other._key) > len(self._key):
            return False
        if not other._key:
            return True
        return self._key[-len(other._key):] == other._key

    def relativize(self, origin: "Name") -> Tuple[str, ...]:
        """Labels of ``self`` below ``origin`` (raises if not a subdomain)."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        count = len(self.labels) - len(origin.labels)
        return self.labels[:count]

    def ancestors(self) -> Iterable["Name"]:
        """Yield self, parent, ..., root — the cache walk order."""
        name = self
        while True:
            yield name
            if name.is_root:
                return
            name = name.parent()


def root_name() -> Name:
    """The DNS root name (".")."""
    return Name(())
