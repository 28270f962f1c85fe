"""Output validators that share no code with what they check.

Every workload's outputs are judged here: a CIGAR replayer written for the
benchmark (it never calls ``Cigar.is_valid_for``), SAM line checks, a
byte-identity comparison of a pulled SAM stream, and the exact infix edit
distance from ``repro.baselines.myers`` as the filter oracle. ``Tally``
does the op accounting every workload reports.

Run ``python benchmarks/stack/validate.py`` for the self-check: a corrupted
CIGAR, a truncated SAM stream and a non-200 response must each be counted
as failed ops.
"""

from __future__ import annotations

import hashlib
import re
import sys
from dataclasses import dataclass, field

_CIGAR_RUN = re.compile(r"(\d+)([=XID])")
_COMPLEMENT = str.maketrans("ACGT", "TGCA")
FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10


@dataclass
class Tally:
    """Ops attempted, failed, and judged correct for one workload."""

    attempted: int = 0
    failed: int = 0
    validated: int = 0
    correct: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def judge(self, problem: str | None, *, correct: bool = True) -> None:
        """Record one validated op: ``problem`` fails it, else it may be correct."""
        self.validated += 1
        if problem is not None:
            self.fail(problem)
        elif correct:
            self.correct += 1

    @property
    def correct_share(self) -> float:
        return self.correct / self.validated if self.validated else 0.0


def reverse_complement(sequence: str) -> str:
    return sequence.translate(_COMPLEMENT)[::-1]


def replay_cigar(cigar: str, reference: str, read: str) -> tuple[int, int] | str:
    """Replay a SAM extended CIGAR; ``(reference consumed, edits)`` or a problem.

    ``=`` must sit on equal characters, ``X`` on different ones, ``I``
    consumes the read, ``D`` the reference; the whole read must be consumed
    and nothing may run past the end of the reference.
    """
    ref_pos = read_pos = edits = matched = 0
    for run in _CIGAR_RUN.finditer(cigar):
        if run.start() != matched:
            return "cigar_malformed"
        matched = run.end()
        length, op = int(run.group(1)), run.group(2)
        if op in "=X":
            ref_part = reference[ref_pos : ref_pos + length]
            read_part = read[read_pos : read_pos + length]
            if len(ref_part) != length or len(read_part) != length:
                return "cigar_overruns"
            if op == "=" and ref_part != read_part:
                return "cigar_match_on_mismatch"
            if op == "X":
                if any(a == b for a, b in zip(ref_part, read_part)):
                    return "cigar_mismatch_on_match"
                edits += length
            ref_pos += length
            read_pos += length
        elif op == "I":
            read_pos += length
            edits += length
        else:
            ref_pos += length
            edits += length
    if matched != len(cigar) or not cigar:
        return "cigar_malformed"
    if read_pos != len(read):
        return "cigar_read_not_consumed"
    if ref_pos > len(reference):
        return "cigar_overruns"
    return ref_pos, edits


def check_alignment(alignment, text: str, read: str) -> str | None:
    """Problem with one ``Alignment`` against the text it was given."""
    region = text[alignment.text_start : alignment.text_start + alignment.text_consumed]
    replayed = replay_cigar(alignment.cigar.to_sam(), region, read)
    if isinstance(replayed, str):
        return replayed
    consumed, edits = replayed
    if consumed != alignment.text_consumed:
        return "text_consumed_mismatch"
    if edits != alignment.edit_distance:
        return "edit_distance_mismatch"
    return None


def check_sam_line(
    line: str, name: str, read: str, genome: str, genome_name: str
) -> tuple[str | None, int | None, bool]:
    """``(problem, 0-based position, reverse)`` for one SAM record line."""
    fields = line.split("\t")
    if len(fields) != 11:
        return "sam_field_count", None, False
    qname, flag_text, rname, pos_text, mapq, cigar = fields[:6]
    if qname != name or fields[9] != read:
        return "sam_wrong_read", None, False
    if not (flag_text.isdigit() and pos_text.isdigit() and mapq.isdigit()):
        return "sam_not_numeric", None, False
    flag = int(flag_text)
    if flag & FLAG_UNMAPPED:
        if rname != "*" or cigar != "*":
            return "sam_unmapped_with_placement", None, False
        return None, None, False
    if rname != genome_name:
        return "sam_wrong_reference", None, False
    position = int(pos_text) - 1
    reverse = bool(flag & FLAG_REVERSE)
    oriented = reverse_complement(read) if reverse else read
    replayed = replay_cigar(cigar, genome[position : position + 2 * len(read)], oriented)
    if isinstance(replayed, str):
        return replayed, position, reverse
    return None, position, reverse


def judge_mapping(
    tally: Tally, line: str, read, genome: str, genome_name: str, tolerance: int
) -> None:
    """Judge one SAM line against the read's simulated origin.

    Well-formed and replayable, or it is a failed op; *correct* when placed
    within ``tolerance`` of where the simulator drew it, on that strand.
    """
    problem, position, reverse = check_sam_line(
        line, read.name, read.sequence, genome, genome_name
    )
    placed = (
        position is not None
        and reverse == read.reverse
        and abs(position - read.true_start) <= tolerance
    )
    tally.judge(problem, correct=placed)


def judge_filter(tally: Tally, verdict: bool, region: str, read: str, threshold: int) -> None:
    """Compare one filter verdict with the exact infix edit distance."""
    from repro.baselines.myers import myers_semiglobal

    similar = myers_semiglobal(region, read) <= threshold
    if similar and not verdict:
        tally.judge("filter_false_reject")
    else:
        tally.judge(None, correct=verdict == similar)


def judge_stream(tally: Tally, pulled: str, expected: str, reads: int) -> None:
    """Judge a pulled SAM stream against the in-process pipeline's bytes.

    Byte-identical passes every read. Otherwise each missing, extra or
    differing record line is a failed op.
    """
    if pulled == expected:
        tally.validated += reads
        tally.correct += reads
        return
    got = [line for line in pulled.split("\n") if line and not line.startswith("@")]
    want = [line for line in expected.split("\n") if line and not line.startswith("@")]
    for index in range(reads):
        if index >= len(got):
            tally.judge("sam_record_missing")
        elif index >= len(want) or got[index] != want[index]:
            tally.judge("sam_record_differs")
        else:
            tally.judge(None)
    if len(got) > reads:
        tally.fail("sam_record_extra", len(got) - reads)


def judge_response(tally: Tally, status: int, sam: str | None, expected: str) -> None:
    """Judge one ``POST /v1/map`` response against the in-process line."""
    if status != 200:
        tally.judge(f"http_{status}")
    elif sam != expected:
        tally.judge("sam_record_differs")
    else:
        tally.judge(None)


def digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("ascii"))
        sha.update(b"\n")
    return sha.hexdigest()


def self_check() -> list[str]:
    """Each deliberately broken output must be counted as a failed op."""
    problems = []
    reference, read = "ACGTACGTAC", "ACGTTCGTAC"
    if replay_cigar("4=1X5=", reference, read) != (10, 1):
        problems.append("replayer rejects a valid CIGAR")
    if not isinstance(replay_cigar("5=1X4=", reference, read), str):
        problems.append("replayer accepts a corrupted CIGAR")
    good = "r0\t0\tchr\t1\t60\t4=1X5=\t*\t0\t0\t" + read + "\t*"
    tally = Tally()
    judge_stream(tally, "@HD\n" + good + "\n", "@HD\n" + good + "\n", 1)
    if tally.failed or tally.correct != 1:
        problems.append("identical SAM streams do not pass")
    tally = Tally()
    judge_stream(tally, "@HD\n" + good + "\n", "@HD\n" + good + "\n" + good + "\n", 2)
    if tally.failed != 1:
        problems.append("a truncated SAM stream is not a failed op")
    tally = Tally()
    judge_response(tally, 503, None, good)
    judge_response(tally, 200, good, good)
    if tally.failed != 1 or tally.correct != 1:
        problems.append("a non-200 response is not a failed op")
    tally = Tally()
    corrupted = good.replace("4=1X5=", "5=1X4=")
    problem, _, _ = check_sam_line(corrupted, "r0", read, reference, "chr")
    tally.judge(problem)
    if tally.failed != 1:
        problems.append("a corrupted CIGAR in a SAM line is not a failed op")
    return problems


if __name__ == "__main__":
    found = self_check()
    for problem in found:
        print(f"self-check: {problem}")
    print("validate.py self-check:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
