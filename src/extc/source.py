"""Source files, and the one resolver from an offset to a line and column, and
from a line to its text. Only "\\n" ends a line, as in the lexer."""
import re
from bisect import bisect_right
from functools import cached_property


class Source:
    """A file's text, and the offsets its lines start at, found on the first lookup."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def line_starts(self) -> list[int]:
        """The offset each line starts at, then one past the end of the text,
        so that line `n` is `text[line_starts[n - 1]:line_starts[n] - 1]`."""
        return [0, *(m.end() for m in re.finditer("\n", self.text)), len(self.text) + 1]

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of `offset`."""
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def line(self, number: int) -> str | None:
        """Line `number`'s text (1-based); None past the last, as a final newline starts none."""
        start, stop = self.line_starts[number - 1:number + 1]
        if start < len(self.text):
            return self.text[start:stop - 1]
