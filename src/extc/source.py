"""Source files, and the one resolver from an offset to a line and column."""
import re
from bisect import bisect_right


class Source:
    """A file's text, and the offsets its lines start at, found on the first lookup."""

    def __init__(self, text: str):
        self.text = text
        self.line_starts: list[int] = []

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of `offset`. Only "\\n" ends a line, as in the lexer."""
        if not self.line_starts:
            self.line_starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1
