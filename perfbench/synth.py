"""Seeded input generator for the benchmark.

Renders labelled utterances as PCM16 WAV bytes: harmonic finals that follow
the per-tone pitch templates of ``tonelab.synth_corpus`` and white-noise
bursts for initials. Only the constants of ``synth_corpus`` are used
(``default_vocab``, ``INITIALS``, ``FINALS``, ``DEFAULT_DUR_RANGES``,
``DEFAULT_TEMPLATES``, ``DEFAULT_TONE_PROBS``); its ``generate_corpus`` is
not, so the benchmark neither measures nor depends on that code.

Counts that drive cost or loss (finals per utterance, initials per
utterance, tones per corpus, sample rates) are stratified rather than drawn independently, so two seeds give
workloads of nearly the same size and only the details differ.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from tonelab.alignment_io import AlignedSyllable, UtteranceAlignment, Vocabulary
from tonelab.synth_corpus import (
    DEFAULT_DUR_RANGES,
    DEFAULT_TEMPLATES,
    DEFAULT_TONE_PROBS,
    FINALS,
    INITIALS,
    default_vocab,
)

NORMAL_FINALS = (5, 10)
LONG_FINALS = (20, 40)
INITIAL_SHARE = 0.4
EDGE_SILENCE_S = (0.05, 0.10)
SPEAKER_SCALE = (0.8, 1.25)
F0_CLAMP_HZ = (80.0, 340.0)
T5_START_HZ = 200.0
T5_DECAY = 0.88
HARMONIC_AMPS = (1.0, 0.35, 0.15)
VOICED_AMP = 0.22
INITIAL_AMP = 0.12
NOISE_SNR_DB = 30.0
RAMP_S = 0.005
# Reported boundaries move by at most this much, and never so far that a
# unit's reported duration leaves its DEFAULT_DUR_RANGES interval.
JITTER_MAX_S = 0.015

# Stream-workload rate mix: most requests at 44.1 kHz, a minority at 48 kHz
# (resampled with a different polyphase ratio) or already at 16 kHz.
RATE_MIX = ((44100, 0.75), (48000, 0.125), (16000, 0.125))

TONES_BY_PROB = tuple(sorted(DEFAULT_TONE_PROBS))


@dataclass(frozen=True)
class Utterance:
    """One generated request: WAV bytes plus the jittered alignment."""

    utt_id: str
    wav: bytes
    alignment: UtteranceAlignment
    sample_rate: int
    duration_s: float


def stratified_counts(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """``n`` integers spread evenly over [lo, hi], both ends included, in
    shuffled order; the longest utterance sets peak memory, so it is fixed."""
    counts = [lo] if n == 1 else [lo + round(k * (hi - lo) / (n - 1)) for k in range(n)]
    rng.shuffle(counts)
    return counts


def rate_plan(rng: np.random.Generator, n: int) -> list[int]:
    """Exactly rounded rate counts for ``n`` requests, in shuffled order."""
    rates: list[int] = []
    for rate, share in RATE_MIX[1:]:
        rates += [rate] * round(share * n)
    rates = [RATE_MIX[0][0]] * (n - len(rates)) + rates
    rng.shuffle(rates)
    return rates


def tone_plan(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` final tones in DEFAULT_TONE_PROBS proportions (largest
    remainder rounding), in shuffled order."""
    exact = np.array([DEFAULT_TONE_PROBS[t] for t in TONES_BY_PROB]) * n
    counts = np.floor(exact).astype(int)
    for k in np.argsort(counts - exact)[: n - counts.sum()]:
        counts[k] += 1
    tones = [t for t, c in zip(TONES_BY_PROB, counts) for _ in range(c)]
    rng.shuffle(tones)
    return tones


def _unit_sequence(rng: np.random.Generator, final_tones: list[str]) -> list[tuple[str, str]]:
    n = len(final_tones)
    with_initial = set(rng.choice(n, size=round(INITIAL_SHARE * n), replace=False).tolist())
    seq = []
    for k, tone in enumerate(final_tones):
        if k in with_initial:
            seq.append((INITIALS[rng.integers(len(INITIALS))], "T0"))
        seq.append((FINALS[rng.integers(len(FINALS))], tone))
    return seq


def _f0_points(tone: str, prev_end_hz: float | None):
    if tone == "T5":
        start = T5_START_HZ if prev_end_hz is None else prev_end_hz
        return ((0.0, start), (1.0, start * T5_DECAY))
    return DEFAULT_TEMPLATES[tone]


def _raised_cosine(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))


def _jitter(rng, tones, starts, ends) -> tuple[list[float], list[float]]:
    """Move every boundary inside [-JITTER_MAX_S, JITTER_MAX_S], keeping each
    reported duration inside its tone's DEFAULT_DUR_RANGES interval."""
    starts, ends = list(starts), list(ends)
    n = len(tones)
    lo0, hi0 = DEFAULT_DUR_RANGES[tones[0]]
    d = ends[0] - starts[0]
    shift = rng.uniform(max(-JITTER_MAX_S, d - hi0, -starts[0]), min(JITTER_MAX_S, d - lo0))
    starts[0] += shift
    for k in range(n - 1):  # shared boundary between unit k and unit k + 1
        lo_a, hi_a = DEFAULT_DUR_RANGES[tones[k]]
        lo_b, hi_b = DEFAULT_DUR_RANGES[tones[k + 1]]
        da = ends[k] - starts[k]
        db = ends[k + 1] - starts[k + 1]
        lo = max(-JITTER_MAX_S, lo_a - da, db - hi_b)
        hi = min(JITTER_MAX_S, hi_a - da, db - lo_b)
        shift = rng.uniform(lo, hi) if hi > lo else 0.0
        ends[k] += shift
        starts[k + 1] += shift
    lo_n, hi_n = DEFAULT_DUR_RANGES[tones[-1]]
    d = ends[-1] - starts[-1]
    shift = rng.uniform(max(-JITTER_MAX_S, lo_n - d), min(JITTER_MAX_S, hi_n - d))
    ends[-1] += shift
    return starts, ends


def render(
    rng: np.random.Generator, utt_id: str, final_tones: list[str], sample_rate: int,
    vocab: Vocabulary,
) -> Utterance:
    """Render one utterance whose finals carry ``final_tones``; about
    INITIAL_SHARE of them get an initial in front."""
    seq = _unit_sequence(rng, final_tones)
    tones = [tone for _, tone in seq]
    durs = [rng.uniform(*DEFAULT_DUR_RANGES[t]) for t in tones]
    lead = rng.uniform(*EDGE_SILENCE_S)
    starts = list(lead + np.concatenate(([0.0], np.cumsum(durs)[:-1])))
    ends = [s + d for s, d in zip(starts, durs)]
    total = ends[-1] + rng.uniform(*EDGE_SILENCE_S)

    fs = sample_rate
    n = int(round(total * fs))
    t = np.arange(n) / fs
    f0 = np.zeros(n)
    amp = np.zeros(n)
    scale = rng.uniform(*SPEAKER_SCALE)
    prev_end = None
    ramp = _raised_cosine(max(2, int(RAMP_S * fs)))
    audio = np.zeros(n)
    for tone, s, e in zip(tones, starts, ends):
        i0, i1 = int(round(s * fs)), min(n, int(round(e * fs)))
        if tone == "T0":
            burst = rng.standard_normal(i1 - i0) * INITIAL_AMP
            k = min(len(ramp), len(burst) // 2)
            burst[:k] *= ramp[:k]
            burst[len(burst) - k :] *= ramp[:k][::-1]
            audio[i0:i1] += burst
            continue
        points = _f0_points(tone, prev_end)
        prev_end = float(points[-1][1])
        rel = (t[i0:i1] - s) / (e - s)
        f0[i0:i1] = np.interp(rel, [p[0] for p in points], [p[1] for p in points])
        env = np.full(i1 - i0, VOICED_AMP)
        k = min(len(ramp), len(env) // 2)
        env[:k] *= ramp[:k]
        env[len(env) - k :] *= ramp[:k][::-1]
        amp[i0:i1] = env
    f0 = np.clip(f0 * scale, *F0_CLAMP_HZ)
    phase = 2.0 * np.pi * np.cumsum(f0) / fs
    voiced = sum(a * np.sin(h * phase) for h, a in enumerate(HARMONIC_AMPS, start=1))
    audio += amp * voiced / sum(HARMONIC_AMPS)
    rms = math.sqrt(float(np.mean(audio**2))) or 1.0
    audio += rng.standard_normal(n) * rms / 10.0 ** (NOISE_SNR_DB / 20.0)

    pcm = np.round(np.clip(audio, -1.0, 1.0) * 32767.0).astype(np.int16)
    buf = io.BytesIO()
    wavfile.write(buf, fs, pcm)

    j_starts, j_ends = _jitter(rng, tones, starts, ends)
    units = tuple(
        AlignedSyllable(s, e - s, vocab.id_of(syl), tone)
        for (syl, tone), s, e in zip(seq, j_starts, j_ends)
    )
    return Utterance(utt_id, buf.getvalue(), UtteranceAlignment(utt_id, units), fs, n / fs)


def shared_subset(seed: int, n: int, vocab: Vocabulary) -> list[Utterance]:
    """Utterances that the stream pool and the score archive both contain."""
    rng = np.random.default_rng([seed, 1])
    plan = _split(rng, stratified_counts(rng, n, *NORMAL_FINALS))
    return [render(rng, f"shared{k:03d}", tones, RATE_MIX[0][0], vocab)
            for k, tones in enumerate(plan)]


def corpus(
    seed: int, tag: int, prefix: str, n_normal: int, n_long: int, vocab: Vocabulary
) -> list[Utterance]:
    """``n_normal`` + ``n_long`` utterances at the stream rate mix, shuffled.

    ``tag`` separates the random streams of corpora made from one seed.
    """
    rng = np.random.default_rng([seed, 2, tag])
    counts = stratified_counts(rng, n_normal, *NORMAL_FINALS)
    if n_long:
        counts += stratified_counts(rng, n_long, *LONG_FINALS)
    rng.shuffle(counts)
    rates = rate_plan(rng, len(counts))
    return [
        render(rng, f"{prefix}{k:05d}", tones, r, vocab)
        for k, (tones, r) in enumerate(zip(_split(rng, counts), rates))
    ]


def _split(rng, counts: list[int]) -> list[list[str]]:
    """Cut one corpus-wide tone plan into per-utterance runs of ``counts``."""
    tones = tone_plan(rng, sum(counts))
    edges = np.cumsum([0] + counts)
    return [tones[a:b] for a, b in zip(edges[:-1], edges[1:])]
