"""Shared exception types, and Record, the base of the package's value records."""


class BoundExceeded(ValueError):
    """A requested object is larger than the configured size bound."""


class BudgetExceeded(RuntimeError):
    """A search exceeded its node budget.  The result is discarded, never truncated."""


class FixtureMismatch(RuntimeError):
    """A bundled fixture failed verification (transcription or engine bug)."""


class Record:
    """An immutable record: its fields are the names in __slots__, each given
    by position or keyword, then validated by the __post_init__ of its class.
    Records of one type with equal fields are equal, and hash as their
    fields; setting an attribute raises."""

    __slots__ = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # each field's slot descriptor setter, found once per class
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if kwargs or len(args) != len(cls._setters):
            names = self.__slots__
            values = dict(zip(names, args), **kwargs)
            if len(args) > len(names) or values.keys() != set(names) or kwargs.keys() & set(names[: len(args)]):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}, each once")
            args = [values[name] for name in names]
        for setter, value in zip(cls._setters, args):
            setter(self, value)
        cls.__post_init__(self)

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")
