"""Producer-consumer / false-sharing pattern classifier.

The paper's directory protocol watches for exactly one access pattern —
migratory sharing — through last-invalidator/streak evidence.  This
family keeps that machinery intact (all coherence decisions delegate to
the stock :class:`~repro.directory.protocol.DirectoryProtocol`) and
layers a *richer observational taxonomy* on top, in the spirit of the
adaptive-classification literature the related-work section surveys:

========================  ============================================
label                     evidence
========================  ============================================
``untouched``             no recorded access
``private``               one processor only (reads and/or writes)
``read-only``             multiple readers, never written
``producer-consumer``     one writer, other processors read
``migratory``             multiple writers with dirty hand-offs (or
                          the base evidence machinery classified it)
``false-sharing``         multiple writers whose written *words* are
                          pairwise disjoint — they share the block,
                          not the data
``multi-writer``          multiple writers, overlapping words
========================  ============================================

Word-level write footprints come from the machine, which must therefore
see every access — including the silent writes the kernels fold into
their walks.  :class:`ClassifierDirectoryMachine` is a machine subclass,
so its replays take the generic per-access loop and register the honest
``family-unkerneled`` fallback; classification is an observation layer,
so message statistics stay identical to the stock machine under the
same policy.

The taxonomy is surfaced through telemetry: a
:class:`repro.telemetry.recorder.DirectoryRecorder` attached to this
machine emits ``pattern`` classification events whenever a block's
label changes, and the final labels are available from
:meth:`ClassifierDirectoryProtocol.pattern_counts`.
"""

from __future__ import annotations

from collections import Counter

from repro.common.types import WORD_SIZE
from repro.directory.protocol import DirectoryProtocol
from repro.system.machine import DirectoryMachine

#: The classification labels, in rough specificity order.
PATTERNS = ("untouched", "private", "read-only", "producer-consumer",
            "migratory", "false-sharing", "multi-writer")


class _BlockPattern:
    """Per-block observational evidence (never drives coherence)."""

    __slots__ = ("readers", "writers", "write_words", "handoffs")

    def __init__(self):
        self.readers: set[int] = set()
        self.writers: set[int] = set()
        #: proc -> set of written word offsets within the block.
        self.write_words: dict[int, set[int]] = {}
        #: Write misses that found the block dirty elsewhere.
        self.handoffs = 0


class ClassifierDirectoryProtocol(DirectoryProtocol):
    """Stock directory protocol plus the pattern taxonomy."""

    __slots__ = ("patterns",)

    def __init__(self, policy):
        super().__init__(policy)
        self.patterns: dict[int, _BlockPattern] = {}

    def _pattern(self, block: int) -> _BlockPattern:
        pat = self.patterns.get(block)
        if pat is None:
            pat = self.patterns[block] = _BlockPattern()
        return pat

    # -- evidence taps (coherence behavior is the superclass's) ----------

    def read_miss(self, block, proc, dirty):
        self._pattern(block).readers.add(proc)
        return super().read_miss(block, proc, dirty)

    def write_miss(self, block, proc, dirty):
        pat = self._pattern(block)
        pat.writers.add(proc)
        if dirty:
            pat.handoffs += 1
        super().write_miss(block, proc, dirty)

    def write_hit(self, block, proc, sole_copy):
        self._pattern(block).writers.add(proc)
        super().write_hit(block, proc, sole_copy)

    def note_word_write(self, block: int, proc: int, word: int) -> None:
        """Record one written word (fed by the machine for every write,
        including the bus-invisible silent ones)."""
        pat = self._pattern(block)
        pat.writers.add(proc)
        pat.write_words.setdefault(proc, set()).add(word)

    # -- the taxonomy ----------------------------------------------------

    def classify(self, block: int) -> str:
        """The block's current pattern label."""
        pat = self.patterns.get(block)
        if pat is None or (not pat.readers and not pat.writers):
            return "untouched"
        if not pat.writers:
            return "read-only" if len(pat.readers) > 1 else "private"
        if len(pat.writers) == 1:
            (writer,) = pat.writers
            if pat.readers - {writer}:
                return "producer-consumer"
            return "private"
        footprints = [words for words in pat.write_words.values() if words]
        if len(footprints) > 1 and len(footprints) == len(pat.writers):
            total = sum(len(words) for words in footprints)
            if len(set().union(*footprints)) == total:
                # Every writer touched its own disjoint words: the
                # processors share the block, not the data.
                return "false-sharing"
        if self.is_migratory(block) or pat.handoffs >= 2:
            return "migratory"
        return "multi-writer"

    def pattern_counts(self) -> Counter:
        """Label -> number of blocks currently classified that way."""
        return Counter(self.classify(block) for block in self.patterns)


class ClassifierDirectoryMachine(DirectoryMachine):
    """Directory machine running the classifier protocol.

    Message accounting is the stock machine's; the only behavioral
    difference is that every access feeds the protocol its word-level
    write footprint (subclasses never engage the kernels, so every
    access reaches :meth:`access`).
    """

    __slots__ = ()

    kernel_fallback_reason = "family-unkerneled"

    def __init__(self, config, policy, placement=None, **kwargs):
        super().__init__(config, policy, placement, **kwargs)
        self.protocol = ClassifierDirectoryProtocol(policy)

    def access(self, proc, is_write, addr, exclusive_hint=False):
        if is_write:
            block = addr >> self._block_shift
            word = (addr - (block << self._block_shift)) // WORD_SIZE
            self.protocol.note_word_write(block, proc, word)
        super().access(proc, is_write, addr, exclusive_hint)
