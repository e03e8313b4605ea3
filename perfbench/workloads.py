"""The stream, score and train workloads: inputs, set-up, timed loop, checks.

Every workload drives tonelab only through its public functions and runs in
one process with a single client. ``run`` returns the end-to-end metrics
(tracing off) or the per-layer metrics (tracing on) as ``{name: (value,
unit)}`` plus the attempted/failed operation counts.

A traced run measures the first half of its time untraced and the second
half traced, which gives ``trace.overhead_share``. ``evaluator.evaluate`` and
``trainer.train`` hide their inner calls, so the traced run ends with a
probe phase that calls ``make_batch``, ``forward``, ``backward`` and
``sgd_update`` directly on the batches the workload used.
"""

from __future__ import annotations

import io
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from tonelab import alignment_io, audio_dsp, evaluator, feature_builder, nn_core, trainer
from tonelab.alignment_io import tone_index
from tonelab.errors import ToneLabError
from tonelab.segmenter import SegmentMode
from tonelab.synth_corpus import default_vocab

import synth
from spans import LAYERS, NullTracer, Tracer

# The model shape that the acceptance suite trains (sf_ctx, context 1).
CONTEXT = 1
MODEL_SHAPE = dict(
    variant="sf_ctx",
    context_size=CONTEXT,
    conv_channels=(4, 8),
    blocks_per_stage=(1, 1),
    stem_stride=(2, 2),
    embedding_dim=48,
    sf_dense_dim=32,
    fusion_hidden_dim=128,
    n_mel_bins=64,
)
# No compute path depends on weight values, so untrained weights from a
# fixed seed cost exactly what trained ones do.
MODEL_SEED = 0
SCORE_BATCH = 64
# Per-utterance and batch-64 logits of one sample differ only by padding;
# the largest gap measured on these inputs is about 1e-6.
LOGIT_ATOL = 1e-5


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the benchmark (``DEFAULT``); its tests use smaller ones."""

    shared: int = 4  # utterances in both the stream pool and the score archive
    stream_normal: int = 40
    stream_long: int = 6
    score_utts: int = 20
    train_utts: int = 12
    dev_utts: int = 10
    epochs: int = 2
    setup_repeats: int = 21


DEFAULT = Sizes()


def train_config(sizes: Sizes) -> trainer.TrainConfig:
    # Patience above max_epochs: every run trains exactly ``epochs`` epochs.
    return trainer.TrainConfig(lr=0.01, momentum=0.9, batch_size=32, max_epochs=sizes.epochs,
                               early_stop_patience=sizes.epochs + 1, seed=0)


def model_config(vocab) -> nn_core.ModelConfig:
    return nn_core.ModelConfig(vocab_size=len(vocab), **MODEL_SHAPE)


# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "audio_dsp.*": "latency_p50_ms, latency_tail_ms, audio_s_per_s on stream; nothing on score or train",
    "alignment_io.parse_alignment_ms": "none (input loading); recorded so a regression shows",
    "feature_builder.build_utterance_samples_ms": "latency_p50_ms, latency_tail_ms on stream",
    "feature_builder.read_archive_s, feature_builder.archive_mb": "setup_s on score and train",
    "feature_builder.write_archive_s": "none (archive building)",
    "trainer.make_batch_ms": "latency on stream, samples_per_s on score and train",
    "trainer.valid_frame_share, trainer.placeholder_slot_share": "samples_per_s on score and train",
    "trainer.epoch_s, trainer.kept_samples, trainer.sgd_update_ms, trainer.evaluate_loss_s":
        "samples_per_s on train only",
    "nn_core.forward_ms, nn_core.forward_ms_per_sample":
        "samples_per_s on score, part of stream latency, dev-eval part of train",
    "nn_core.backward_ms": "samples_per_s on train only",
    "nn_core.load_model_ms, nn_core.build_model_ms": "setup_s",
    "evaluator.evaluate_s": "samples_per_s and latency on score",
    "process.sys_share": "every latency and throughput metric, on every workload",
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.notes.append(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())


# -- helpers -------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (percentile 100) below eleven samples."""
    xs = sorted(times)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 10
    return xs[k - 1], 100.0 * k / len(xs)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def labels_of(samples) -> np.ndarray:
    return np.asarray([tone_index(s.label) for s in samples], dtype=np.int64)


def same_predictions(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal within LOGIT_ATOL, and equal argmax unless the top two are tied."""
    if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=LOGIT_ATOL):
        return False
    top2 = np.sort(a, axis=1)[:, -2:]
    tied = top2[:, 1] - top2[:, 0] <= LOGIT_ATOL
    return bool(np.all((a.argmax(axis=1) == b.argmax(axis=1)) | tied))


def pad_counts(batch) -> np.ndarray:
    """[valid frames, padded frames, placeholder slots, slots] of one Batch."""
    b, s, t, _ = batch.slices.shape
    return np.array([int(batch.frame_mask.sum()), b * s * t, int(batch.slot_mask.sum()), b * s])


def dir_mb(path) -> float:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)) / 1e6


def timed_loop(seconds: float, op, out: Outcome) -> list[float]:
    """Closed loop: run ``op(i)`` back to back for ``seconds``; returns the
    latency of every operation. ``op`` returns False when its check fails."""
    times = []
    i = 0
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            ok = op(i)
        except ToneLabError as exc:
            ok = False
            out.notes.append(f"operation {i} raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        times.append(t1 - t0)
        out.attempted += 1
        out.failed += not ok
        i += 1
        if t1 >= end:
            return times


def window_seconds(times: list[float], window: int) -> float:
    """Median time of consecutive ``window``-operation windows, each doing the
    same work; below one full window, the mean scaled to one window."""
    full = [sum(times[k : k + window]) for k in range(0, len(times) - window + 1, window)]
    return statistics.median(full) if full else sum(times) * window / len(times)


def setup_median(repeats: int, fn) -> tuple[float, object]:
    """Median of ``repeats`` timed set-ups, and the last one's result."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def featurize(tr, out: Outcome, utts, alignments, vocab, mel_cfg) -> tuple[list, float]:
    """Context samples of ``utts`` and their audio seconds. An utterance the
    program rejects counts as a failed operation and is left out."""
    samples, audio_s = [], 0.0
    for u in utts:
        out.attempted += 1
        try:
            wave = tr.call("audio_dsp.load_wav", audio_dsp.load_wav, io.BytesIO(u.wav))
            wave = tr.call("audio_dsp.resample", audio_dsp.resample, wave, mel_cfg.sample_rate)
            mel = tr.call("audio_dsp.mel_spectrogram", audio_dsp.mel_spectrogram, wave, mel_cfg)
            samples += tr.call("feature_builder.build_utterance_samples",
                               feature_builder.build_utterance_samples,
                               alignments[u.utt_id], mel, vocab, CONTEXT, SegmentMode.TRITONE)
        except ToneLabError as exc:
            out.failed += 1
            out.notes.append(f"featurizing {u.utt_id} raised {type(exc).__name__}: {exc}")
            continue
        audio_s += u.duration_s
    return samples, audio_s


def load_alignments(tr, utts, vocab, path) -> dict:
    """Write the generated alignments as TSV, then parse them back: the
    requests carry what ``parse_alignment`` returns."""
    alignment_io.write_alignment([u.alignment for u in utts], vocab, path)
    parsed = tr.call("alignment_io.parse_alignment", alignment_io.parse_alignment, path, vocab)
    return {a.utt_id: a for a in parsed}


# -- workloads -----------------------------------------------------------------

class Workload:
    """Common sequence: inputs -> set-up -> timed loop -> checks -> probes."""

    name = ""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: str, sizes: Sizes):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.sizes = sizes
        self.tracer = Tracer() if trace else NullTracer()
        self.vocab = default_vocab()
        self.mel_cfg = audio_dsp.MelConfig()
        self.model_cfg = model_config(self.vocab)
        self.train_cfg = train_config(sizes)
        self.out = Outcome()
        # Padding counters and forwarded samples, traced and probed batches only.
        self.pad = np.zeros(4, dtype=np.int64)
        self.forward_samples = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run(self) -> Outcome:
        tr = self.tracer
        with tr.phase("inputs"):
            self.make_inputs()
        with tr.phase("setup"):
            self.setup_s = self.set_up()
        self.warm_up()
        if self.trace:
            half = self.seconds / 2.0
            self.tracer = NullTracer()
            untraced = timed_loop(half, self.op, self.out)
            self.tracer = tr
            cpu0 = os.times()
            with tr.phase("workload"):
                traced = timed_loop(half, lambda i: self.traced_op(len(untraced) + i), self.out)
            cpu1 = os.times()
            cpu = cpu1.user + cpu1.system - cpu0.user - cpu0.system
            self.sys_share = (cpu1.system - cpu0.system) / cpu if cpu else 0.0
            self.latencies = traced
            self.overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        else:
            self.latencies = timed_loop(self.seconds, self.op, self.out)
        with tr.phase("checks"):
            self.checks()
        if self.trace:
            with tr.phase("probe"):
                self.probe()
            self.out.metrics = self.layer_metrics()
        else:
            self.out.metrics = self.end_to_end()
        return self.out

    def traced_op(self, i: int) -> bool:
        with self.tracer.op(f"bench.{self.name}", f"{self.name}-{i}"):
            return self.op(i)

    def warm_up(self) -> None:
        """Let lazy set-up inside numpy/scipy finish before timing."""

    # -- end-to-end metrics --------------------------------------------------
    def end_to_end(self) -> dict:
        lat = self.latencies
        value, pct = tail(lat)
        self.out.notes.append(
            f"latency_tail_ms is p{pct:.1f} of {len(lat)} operations "
            f"({10 if len(lat) > 10 else 0} beyond)")
        samples, audio_s, window = self.window_work()
        busy = window_seconds(lat, window)
        self.out.notes.append(
            f"throughput: median of {len(lat) // window} windows of {window} operations, "
            f"each {samples} samples and {audio_s:.2f} s of audio")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (self.setup_s, "s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1e3 * value, "ms"),
            "audio_s_per_s": (audio_s / busy, "s/s"),
            "samples_per_s": (samples / busy, "1/s"),
            "dev_loss": (self.dev_loss, "nats"),
            "ok_share": (1.0 - self.out.failed / self.out.attempted, "share"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    # -- per-layer metrics ---------------------------------------------------
    def layer_metrics(self) -> dict:
        tr = self.tracer
        m: dict = {}

        def per_call(name, phases=("workload", "probe"), scale=1e3):
            spans = [s for p in phases for s in tr.select(p, name=name)]
            return scale * sum(s.seconds for s in spans) / len(spans) if spans else 0.0

        def calls(layer):
            return len(tr.select("workload", layer=layer)) + len(tr.select("probe", layer=layer))

        op_seconds = sum(s.seconds for s in tr.select("workload", name=f"bench.{self.name}"))
        self_s = tr.self_seconds("workload")
        setup = tr.select("setup")

        m["audio_dsp.calls"] = (calls("audio_dsp"), "count")
        m["audio_dsp.load_wav_ms"] = (per_call("audio_dsp.load_wav"), "ms")
        m["audio_dsp.resample_ms"] = (per_call("audio_dsp.resample"), "ms")
        m["audio_dsp.resample_calls"] = (len(tr.select("workload", name="audio_dsp.resample")), "count")
        m["audio_dsp.mel_spectrogram_ms"] = (per_call("audio_dsp.mel_spectrogram"), "ms")
        m["audio_dsp.share"] = (self_s.get("audio_dsp", 0.0) / op_seconds, "share")
        m["alignment_io.parse_alignment_ms"] = (per_call("alignment_io.parse_alignment", ("inputs",)), "ms")
        m["feature_builder.calls"] = (calls("feature_builder"), "count")
        m["feature_builder.build_utterance_samples_ms"] = (
            per_call("feature_builder.build_utterance_samples"), "ms")
        reads = [s.seconds for s in setup if s.name == "feature_builder.read_archive"]
        m["feature_builder.read_archive_s"] = (statistics.median(reads) if reads else 0.0, "s")
        m["feature_builder.archive_mb"] = (self.archive_mb(), "MB")
        m["feature_builder.write_archive_s"] = (
            per_call("feature_builder.write_archive", ("inputs",), 1.0), "s")
        valid, padded, placeholders, slots = (int(x) for x in self.pad)
        m["trainer.calls"] = (calls("trainer"), "count")
        m["trainer.make_batch_ms"] = (self.make_batch_ms(per_call), "ms")
        m["trainer.valid_frames"] = (valid, "count")
        m["trainer.padded_frames"] = (padded, "count")
        m["trainer.valid_frame_share"] = (valid / padded if padded else 0.0, "share")
        m["trainer.placeholder_slots"] = (placeholders, "count")
        m["trainer.slots"] = (slots, "count")
        m["trainer.placeholder_slot_share"] = (placeholders / slots if slots else 0.0, "share")
        m.update(self.train_layer_metrics(per_call))
        m["nn_core.calls"] = (calls("nn_core"), "count")
        m["nn_core.forward_ms"] = (per_call("nn_core.forward"), "ms")
        fwd = [s.seconds for p in ("workload", "probe") for s in tr.select(p, name="nn_core.forward")]
        m["nn_core.forward_ms_per_sample"] = (
            1e3 * sum(fwd) / self.forward_samples if self.forward_samples else 0.0, "ms")
        m["nn_core.forward_share"] = (self.forward_share(op_seconds), "share")
        m["nn_core.backward_ms"] = (per_call("nn_core.backward"), "ms")
        m["nn_core.backward_share"] = (self.backward_share(), "share")
        loads = [s.seconds for s in setup if s.name == "nn_core.load_model"]
        m["nn_core.load_model_ms"] = (1e3 * statistics.median(loads) if loads else 0.0, "ms")
        builds = [s.seconds for s in setup if s.name == "nn_core.build_model"]
        m["nn_core.build_model_ms"] = (1e3 * statistics.median(builds) if builds else 0.0, "ms")
        m["evaluator.calls"] = (calls("evaluator"), "count")
        m["evaluator.evaluate_s"] = (per_call("evaluator.evaluate", scale=1.0), "s")
        for layer in LAYERS + ("segmenter",):
            m[f"{layer}.failed"] = (tr.failures.get(layer, 0), "count")
        for layer in LAYERS[1:] + ("bench",):  # audio_dsp.share is audio_dsp's self share
            m[f"{layer}.self_share"] = (self_s.get(layer, 0.0) / op_seconds, "share")
        m["process.sys_share"] = (self.sys_share, "share")
        m["trace.spans"] = (len(tr.spans), "count")
        m["trace.overhead_share"] = (self.overhead, "share")
        return m

    def count_batch(self, batch) -> None:
        self.pad += pad_counts(batch)

    def make_batch_ms(self, per_call) -> float:
        return per_call("trainer.make_batch")

    def train_layer_metrics(self, per_call) -> dict:
        return {
            "trainer.epoch_s": (0.0, "s"),
            "trainer.kept_samples": (0, "count"),
            "trainer.sgd_update_ms": (0.0, "ms"),
            "trainer.evaluate_loss_s": (0.0, "s"),
        }

    def forward_share(self, op_seconds: float) -> float:
        return self.tracer.self_seconds("workload").get("nn_core", 0.0) / op_seconds

    def backward_share(self) -> float:
        return 0.0

    def archive_mb(self) -> float:
        return 0.0

    def probe(self) -> None:
        pass


class Stream(Workload):
    """Closed loop, one client; one request = WAV bytes + alignment."""

    name = "stream"

    def make_inputs(self):
        sz = self.sizes
        shared = synth.shared_subset(self.seed, sz.shared, self.vocab)
        rest = synth.corpus(self.seed, 0, "req", sz.stream_normal, sz.stream_long, self.vocab)
        self.shared_ids = [u.utt_id for u in shared]
        self.pool = shared + rest
        self.alignments = load_alignments(self.tracer, self.pool, self.vocab, self.path("stream.tsv"))
        model = nn_core.build_model(self.model_cfg, MODEL_SEED)
        nn_core.save_model(model, self.path("model"))
        self.order = np.random.default_rng([self.seed, 3]).permutation(len(self.pool))
        self.first: dict = {}  # utt_id -> (samples, logits) of its first request
        self.reached: set = set()
        self.out.notes.append(
            f"pool: {len(self.pool)} utterances, {sum(u.duration_s for u in self.pool):.1f} s audio, "
            f"rates {sorted({u.sample_rate for u in self.pool})}")

    def set_up(self):
        tr = self.tracer
        seconds, self.model = setup_median(
            self.sizes.setup_repeats,
            lambda: tr.call("nn_core.load_model", nn_core.load_model, self.path("model")))
        return seconds

    def request(self, utt):
        tr = self.tracer
        wave = tr.call("audio_dsp.load_wav", audio_dsp.load_wav, io.BytesIO(utt.wav))
        if wave.sample_rate != self.mel_cfg.sample_rate:
            wave = tr.call("audio_dsp.resample", audio_dsp.resample, wave, self.mel_cfg.sample_rate)
        mel = tr.call("audio_dsp.mel_spectrogram", audio_dsp.mel_spectrogram, wave, self.mel_cfg)
        samples = tr.call("feature_builder.build_utterance_samples",
                          feature_builder.build_utterance_samples,
                          self.alignments[utt.utt_id], mel, self.vocab, CONTEXT, SegmentMode.TRITONE)
        batch = tr.call("trainer.make_batch", trainer.make_batch, samples)
        logits = tr.call("nn_core.forward", nn_core.forward, self.model, batch, False)
        preds = logits.argmax(axis=1)
        return samples, batch, logits, preds

    def op(self, i: int) -> bool:
        utt = self.pool[self.order[i % len(self.pool)]]
        self.reached.add(utt.utt_id)
        samples, batch, logits, preds = self.request(utt)
        if self.tracer.enabled:
            self.count_batch(batch)
            self.forward_samples += len(samples)
        if utt.utt_id not in self.first:
            self.first[utt.utt_id] = (samples, logits)
        # One finite prediction per aligned unit.
        return len(preds) == len(self.alignments[utt.utt_id].syllables) and bool(
            np.all(np.isfinite(logits)))

    def warm_up(self):
        seen = set()
        for utt in self.pool:
            if utt.sample_rate not in seen:
                try:
                    self.request(utt)
                    seen.add(utt.sample_rate)
                except ToneLabError:
                    pass  # the timed loop counts this request's failure

    def answered(self) -> list:
        """Pool utterances with at least one successful request."""
        return [u for u in self.pool if u.utt_id in self.first]

    def checks(self):
        for utt in self.pool:
            if utt.utt_id not in self.reached:  # requests the timed loop did not reach
                self.out.attempted += 1
                try:
                    samples, _, logits, _ = self.request(utt)
                    self.first[utt.utt_id] = (samples, logits)
                except ToneLabError as exc:
                    self.out.failed += 1
                    self.out.notes.append(f"request {utt.utt_id} raised {type(exc).__name__}: {exc}")
        done = self.answered()
        samples = [s for u in done for s in self.first[u.utt_id][0]]
        logits = np.concatenate([self.first[u.utt_id][1] for u in done])
        self.dev_loss = cross_entropy(logits, labels_of(samples))
        # Batch-64 logits of the shared utterances (padded out with other
        # requests' samples) must match their per-request logits.
        shared_ids = [uid for uid in self.shared_ids if uid in self.first]
        if not shared_ids:
            self.out.check("shared_subset_batch64", False, "no shared utterance was answered")
            return
        shared = [s for uid in shared_ids for s in self.first[uid][0]]
        alone = np.concatenate([self.first[uid][1] for uid in shared_ids])
        # Shortest filler first, so the check batch pads no more than the
        # requests themselves do and leaves peak memory to the workload.
        filler = sorted((s for s in samples if s.utt_id not in shared_ids),
                        key=lambda s: max(sl.shape[0] for sl in s.slices))
        batch = trainer.make_batch((shared + filler)[:max(SCORE_BATCH, len(shared))])
        together = nn_core.forward(self.model, batch, False)[: len(shared)]
        gap = float(np.abs(together - alone).max())
        self.out.check("shared_subset_batch64", same_predictions(alone, together),
                       f"max |logit gap| {gap:.2e} over {len(shared)} samples")

    def window_work(self):
        """One window is one pass over the pool, in the same order each time;
        requests the program rejects classify nothing."""
        done = self.answered()
        samples = sum(len(self.alignments[u.utt_id].syllables) for u in done)
        return samples, sum(u.duration_s for u in done), len(self.pool)


class Score(Workload):
    """Offline batch scoring of a prebuilt context-1 archive."""

    name = "score"

    def make_inputs(self):
        tr = self.tracer
        sz = self.sizes
        shared = synth.shared_subset(self.seed, sz.shared, self.vocab)
        rest = synth.corpus(self.seed, 1, "arc", sz.score_utts, 0, self.vocab)
        utts = shared + rest
        self.shared_ids = [u.utt_id for u in shared]
        alignments = load_alignments(tr, utts, self.vocab, self.path("score.tsv"))
        samples, self.audio_s = featurize(tr, self.out, utts, alignments, self.vocab, self.mel_cfg)
        tr.call("feature_builder.write_archive", feature_builder.write_archive, samples,
                self.path("score.arc"), mel_config=self.mel_cfg.to_dict())
        model = nn_core.build_model(self.model_cfg, MODEL_SEED)
        nn_core.save_model(model, self.path("model"))
        self.report = None

    def set_up(self):
        tr = self.tracer

        def once():
            samples, manifest = tr.call("feature_builder.read_archive",
                                        feature_builder.read_archive, self.path("score.arc"))
            model = tr.call("nn_core.load_model", nn_core.load_model, self.path("model"))
            return samples, manifest, model

        seconds, (self.samples, self.manifest, self.model) = setup_median(
            self.sizes.setup_repeats, once)
        return seconds

    def op(self, i: int) -> bool:
        report = self.tracer.call("evaluator.evaluate", evaluator.evaluate, self.model,
                                  self.samples, evaluator.DEFAULT_PATTERNS, SCORE_BATCH)
        if self.report is None:
            self.report = report
        n = len(self.samples)
        return report.n_samples == n and int(report.confusion.sum()) == n

    def warm_up(self):
        evaluator.evaluate(self.model, self.samples, evaluator.DEFAULT_PATTERNS, SCORE_BATCH)

    def chunks(self):
        return [self.samples[i : i + SCORE_BATCH] for i in range(0, len(self.samples), SCORE_BATCH)]

    def checks(self):
        report = self.report
        n_archive = len(self.manifest["samples"])
        self.out.check("n_samples", report.n_samples == n_archive,
                       f"{report.n_samples} scored, {n_archive} in archive")
        self.out.check("confusion_sum", int(report.confusion.sum()) == report.n_samples)
        logits = np.concatenate([
            nn_core.forward(self.model, trainer.make_batch(c), False) for c in self.chunks()])
        labels = labels_of(self.samples)
        self.dev_loss = cross_entropy(logits, labels)
        acc = float((logits.argmax(axis=1) == labels).mean())
        self.out.check("accuracy_matches_batch64", abs(acc - report.overall_accuracy) < 1e-12,
                       f"{report.overall_accuracy:.4f} vs {acc:.4f}")
        worst, ok, count = 0.0, True, 0
        for uid in self.shared_ids:
            idx = [k for k, s in enumerate(self.samples) if s.utt_id == uid]
            if not idx:  # rejected while the archive was built; counted there
                continue
            alone = nn_core.forward(self.model,
                                    trainer.make_batch([self.samples[k] for k in idx]), False)
            ok &= same_predictions(alone, logits[idx])
            worst = max(worst, float(np.abs(alone - logits[idx]).max()))
            count += len(idx)
        self.out.check("shared_subset_batch64", ok, f"max |logit gap| {worst:.2e} over {count} samples")

    def window_work(self):
        return len(self.samples), self.audio_s, 1

    def archive_mb(self) -> float:
        return dir_mb(self.path("score.arc"))

    def probe(self):
        tr = self.tracer
        with tr.op("probe.score_pass", "probe"):
            for chunk in self.chunks():
                batch = tr.call("trainer.make_batch", trainer.make_batch, chunk)
                self.count_batch(batch)
                tr.call("nn_core.forward", nn_core.forward, self.model, batch, False)
        self.forward_samples = len(self.samples)

    def forward_share(self, op_seconds: float) -> float:
        fwd = sum(s.seconds for s in self.tracer.select("probe", name="nn_core.forward"))
        evals = self.tracer.select("workload", name="evaluator.evaluate")
        return fwd / (sum(s.seconds for s in evals) / len(evals))


class Train(Workload):
    """A fixed number of epochs of ``trainer.train`` on a train/dev archive pair."""

    name = "train"

    def make_inputs(self):
        tr = self.tracer
        sz = self.sizes
        self.history = None
        for tag, split, n in ((2, "train", sz.train_utts), (3, "dev", sz.dev_utts)):
            utts = synth.corpus(self.seed, tag, split, n, 0, self.vocab)
            alignments = load_alignments(tr, utts, self.vocab, self.path(f"{split}.tsv"))
            samples, audio_s = featurize(tr, self.out, utts, alignments, self.vocab, self.mel_cfg)
            if split == "train":
                self.audio_s = audio_s
            tr.call("feature_builder.write_archive", feature_builder.write_archive, samples,
                    self.path(f"{split}.arc"), mel_config=self.mel_cfg.to_dict())

    def set_up(self):
        tr = self.tracer

        def once():
            train, _ = tr.call("feature_builder.read_archive", feature_builder.read_archive,
                               self.path("train.arc"))
            dev, _ = tr.call("feature_builder.read_archive", feature_builder.read_archive,
                             self.path("dev.arc"))
            model = tr.call("nn_core.build_model", nn_core.build_model, self.model_cfg, MODEL_SEED)
            return train, dev, model

        seconds, (self.train, self.dev, _) = setup_median(self.sizes.setup_repeats, once)
        self.replay()
        return seconds

    def replay(self):
        """Kept samples per train call: replay the trainer's seeded T0
        downsampling and shuffle through the same public functions."""
        cfg = self.train_cfg
        rng = np.random.default_rng(cfg.seed)
        self.kept_total = 0
        for epoch in range(cfg.max_epochs):
            kept = trainer.downsample_initials(self.train, cfg.t0_keep_prob, rng)
            trainer.make_batches(kept, cfg.batch_size, rng)  # advances rng as train does
            self.kept_total += len(kept)
        self.dev_batches = [trainer.make_batch(self.dev[i : i + cfg.batch_size])
                            for i in range(0, len(self.dev), cfg.batch_size)]
        untrained = nn_core.build_model(self.model_cfg, MODEL_SEED)
        self.untrained_loss, _ = trainer.evaluate_loss(untrained, self.dev_batches)

    def op(self, i: int) -> bool:
        model = nn_core.build_model(self.model_cfg, MODEL_SEED)
        _, hist = self.tracer.call("trainer.train", trainer.train, model, self.train, self.dev,
                                   self.train_cfg)
        if self.history is None:
            self.history = hist
        ok = len(hist.dev_loss) == self.train_cfg.max_epochs and all(
            math.isfinite(x) for x in hist.train_loss + hist.dev_loss)
        # Same init, data and seed: every call must repeat the first one.
        return ok and np.allclose(hist.dev_loss, self.history.dev_loss, rtol=1e-6, atol=0.0)

    def checks(self):
        hist = self.history
        epochs = self.train_cfg.max_epochs
        self.out.check("epochs", len(hist.train_loss) == epochs and len(hist.dev_loss) == epochs,
                       f"{len(hist.dev_loss)} of {epochs}")
        finite = all(math.isfinite(x) for x in hist.train_loss + hist.dev_loss)
        self.out.check("finite_losses", finite)
        self.dev_loss = hist.dev_loss[-1]
        self.out.check("dev_loss_below_untrained", self.dev_loss < self.untrained_loss,
                       f"{self.dev_loss:.4f} < {self.untrained_loss:.4f}")

    def window_work(self):
        return self.kept_total, self.audio_s * self.train_cfg.max_epochs, 1

    def archive_mb(self) -> float:
        return dir_mb(self.path("train.arc")) + dir_mb(self.path("dev.arc"))

    def probe(self):
        """One epoch's shuffled 32-sample batches: make_batches, then
        backward + sgd_update per batch, then the dev evaluation."""
        tr = self.tracer
        cfg = self.train_cfg
        model = nn_core.build_model(self.model_cfg, MODEL_SEED)
        velocity = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        rng = np.random.default_rng(cfg.seed)
        with tr.op("probe.train_epoch", "probe"):
            kept = tr.call("trainer.downsample_initials", trainer.downsample_initials,
                           self.train, cfg.t0_keep_prob, rng)
            batches = tr.call("trainer.make_batches", trainer.make_batches, kept, cfg.batch_size, rng)
            for batch in batches:
                self.count_batch(batch)
                _, grads = tr.call("nn_core.backward", nn_core.backward, model, batch)
                tr.call("trainer.sgd_update", trainer.sgd_update, model.params, grads, velocity,
                        cfg.lr, cfg.momentum)
            tr.call("trainer.evaluate_loss", trainer.evaluate_loss, model, self.dev_batches)
            for batch in self.dev_batches:
                self.count_batch(batch)
                tr.call("nn_core.forward", nn_core.forward, model, batch, False)
        self.probe_kept = len(kept)
        self.probe_batches = len(batches)
        self.forward_samples = len(self.dev)

    def make_batch_ms(self, per_call) -> float:
        spans = self.tracer.select("probe", name="trainer.make_batches")
        return 1e3 * sum(s.seconds for s in spans) / self.probe_batches

    def train_seconds(self) -> float:
        calls = self.tracer.select("workload", name="trainer.train")
        return sum(s.seconds for s in calls) / len(calls)

    def train_layer_metrics(self, per_call) -> dict:
        return {
            "trainer.epoch_s": (self.train_seconds() / self.train_cfg.max_epochs, "s"),
            "trainer.kept_samples": (self.kept_total, "count"),
            "trainer.sgd_update_ms": (per_call("trainer.sgd_update"), "ms"),
            "trainer.evaluate_loss_s": (per_call("trainer.evaluate_loss", scale=1.0), "s"),
        }

    def forward_share(self, op_seconds: float) -> float:
        # Dev evaluation: one forward pass over the dev set per epoch.
        fwd = sum(s.seconds for s in self.tracer.select("probe", name="nn_core.forward"))
        return fwd * self.train_cfg.max_epochs / self.train_seconds()

    def backward_share(self) -> float:
        bwd = sum(s.seconds for s in self.tracer.select("probe", name="nn_core.backward"))
        return bwd / self.probe_kept * self.kept_total / self.train_seconds()


CLASSES = {"stream": Stream, "score": Score, "train": Train}
WORKLOADS = tuple(CLASSES)


def describe(workload: Workload) -> dict:
    """The resolved configuration a result was measured with."""
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": workload.seconds,
        "sizes": workload.sizes.__dict__,
        "model": workload.model_cfg.to_dict(),
        "model_seed": MODEL_SEED,
        "train": workload.train_cfg.__dict__,
        "mel": workload.mel_cfg.to_dict(),
        "segment_mode": SegmentMode.TRITONE.value,
        "score_batch": SCORE_BATCH,
        "logit_atol": LOGIT_ATOL,
    }
