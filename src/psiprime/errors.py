"""Exception types shared by the whole package, and its record decorator."""

from operator import attrgetter


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class SizeLimitError(ValueError):
    """A computation would exceed a documented size cap."""


class ConsistencyError(ArithmeticError):
    """An internal exactness check failed (e.g. a checked division left a
    remainder).  Signals a formula transcription bug, never bad user input."""


class NotationError(DomainError):
    """Unparseable group/partition notation.  Carries the offset of the
    first offending character so front ends can point at it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


class FrozenInstanceError(AttributeError):
    """An attempt to set or delete a field of a frozen record."""


def require_int(value, name: str, low: int | None = 1, cap: int | None = None, cap_name: str = ""):
    """Return value if it is a plain int from low (None: unbounded) to cap
    (None: uncapped); otherwise raise DomainError naming it, or
    SizeLimitError if it is past cap.  Callers check before any cache or
    work: a bad value must not meet a cached result, an empty sweep would
    report success having checked nothing, and a bound past a cap would
    fail only after every order below it ran."""
    # a float or bool would fail deep inside, or pass as a bound
    if type(value) is not int:
        raise DomainError(f"{name} = {value!r} must be an int")
    if low is not None and value < low:
        raise DomainError(f"{name} = {value} must be >= {low}")
    if cap is not None and value > cap:
        raise SizeLimitError(f"{name} = {value} exceeds the {cap_name} {cap}")
    return value


def frozen(cls):
    """``dataclass(frozen=True)`` without importing ``dataclasses`` (and so
    inspect, ast and dis): its __eq__, __hash__ and __repr__ over the fields
    in cls's annotations, refused assignment and deletion, and unless cls
    has one, an __init__ taking the fields by position or keyword."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    # the field tuple; attrgetter returns a bare value for one name
    key = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)

    def __init__(self, *args, **kwargs):
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, lambda self: hash(key(self)), __repr__
    cls.__setattr__ = cls.__delattr__ = refuse
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    return cls
