"""Per-line benign/vulnerable classifiers and their persistence.

A classifier maps a source line to (vote, score): score is the estimated
probability that the line is benign, and vote is 1 when score reaches the
decision threshold. Three kinds exist:

  - LinearLineClassifier: L2-regularized logistic regression over one
    feature view, trained deterministically (fixed seed, L-BFGS from a zero
    start), with inference in plain Python so assessment stays cheap: a
    table from feature name to weight, built once per model, gives each
    feature's weight in one lookup;
  - LookupLineClassifier: votes 0 exactly for an explicit set of normalized
    lines (test stubs and pipeline plumbing checks);
  - AdapterLineClassifier: delegates to an external process speaking a
    line-delimited JSON protocol (one {"id","text"} request per line, one
    {"id","score"} response, 5 s timeout).

Every score lies in [0, 1], so a vote threshold outside it would make a
classifier vote alike on every line: each kind refuses one when it is built,
by the rule TrainConfig and load_model share.

Each classify takes the raw line text and reads it through a ScreenText
(features.py), a str equal to that text which normalizes and tokenizes it
once. An ensemble screening one line hands every member the same
ScreenText, so the line is tokenized once for all of them; given a plain
str, a classifier wraps it in one of its own. Training reads each sample
through the ScreenText its LineSample holds, so a model learns exactly the
features a screen will score it on, and the three views of one build share
one tokenization of each sample.

Models persist as versioned JSON documents; bytes are identical across runs
with the same inputs and seed.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import queue
import random
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..errors import (
    AdapterError,
    DegenerateTrainingError,
    SchemaError,
    UndefinedInputError,
)
from ..pdg import (
    SCHEMA_VERSION,
    check_schema_version,
    dumps_canonical,
    is_strict_int,
    json_number,
    read_json_object,
)
from .dataset import LineLabel, LineSample
from .features import FeatureView, ScreenText

ADAPTER_ENV_VAR = "TRUSTVET_ADAPTER"
ADAPTER_TIMEOUT = 5.0


_HELDOUT_FRACTION = 0.10  # of each class, kept out of training to measure accuracy
_MAX_L2 = sys.float_info.max / 2  # the largest l2 whose double is finite


def _shared(text: str) -> ScreenText:
    """The screen's ScreenText, or a new one around a plain str."""
    return text if isinstance(text, ScreenText) else ScreenText(text)


def _check_threshold(threshold: float) -> float:
    """threshold itself when it lies in [0, 1], where every score lies; one
    outside, or NaN, raises UndefinedInputError."""
    if not 0.0 <= threshold <= 1.0:  # also false for NaN
        raise UndefinedInputError(f"threshold must be in [0, 1], not {threshold!r}")
    return threshold


@dataclass
class TrainConfig:
    """Training settings; a value that no model can be trained or loaded
    with raises UndefinedInputError here, before any training."""

    seed: int = 0
    l2: float = 1e-2
    max_iter: int = 200
    threshold: float = 0.5

    def __post_init__(self):
        # the gradient's 2 * l2 * w must stay finite, or the first step is NaN
        if not 0.0 <= self.l2 <= _MAX_L2:  # also false for NaN
            raise UndefinedInputError(
                f"l2 must be at least 0 and at most {_MAX_L2!r}, not {self.l2!r}"
            )
        if self.max_iter < 1:
            raise UndefinedInputError(f"max_iter must be at least 1, not {self.max_iter!r}")
        _check_threshold(self.threshold)


@dataclass
class LinearLineClassifier:
    """One view's logistic model: vocabulary maps a feature name to its
    index in weights. Scoring reads a {name: weight} table built from the
    two when the model is made, so vocabulary and weights are read-only
    afterwards; they alone are saved."""

    view: FeatureView
    vocabulary: dict[str, int]
    weights: list[float]
    bias: float
    threshold: float = 0.5
    seed: int = 0
    heldout_accuracy: float | None = None
    _weight_of: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_threshold(self.threshold)
        weights = self.weights
        self._weight_of = {name: weights[idx] for name, idx in self.vocabulary.items()}

    def score(self, text: str) -> float:
        """The sigmoid of the bias plus each known feature's weight times its
        value, added in the order the features come."""
        z = self.bias
        weight_of = self._weight_of.get
        for name, value in _shared(text).features(self.view).items():
            weight = weight_of(name)
            if weight is not None:
                z += weight * value
        if z >= 0.0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    def classify(self, text: str) -> tuple[int, float]:
        s = self.score(text)
        return (1 if s >= self.threshold else 0), s


@dataclass
class LookupLineClassifier:
    """Votes 0 (not benign) exactly for the listed normalized lines."""

    non_benign: frozenset[str]
    threshold: float = 0.5

    def __post_init__(self):
        _check_threshold(self.threshold)

    def classify(self, text: str) -> tuple[int, float]:
        normalized = _shared(text).normalized()
        score = 0.0 if normalized in self.non_benign else 1.0
        return (1 if score >= self.threshold else 0), score


class AdapterLineClassifier:
    """Bridge to an external classifier process.

    The child is spawned lazily and kept alive; each classify() writes one
    request line and waits up to `timeout` seconds for the matching response,
    discarding late answers to earlier requests that timed out. A child
    whose input or output ends before it answers is closed, and the request
    is sent once more, to a new child; a second such end fails the call.
    One found dead at the next call is closed and replaced too. Each child's
    output goes to a queue of its own, so its end of stream reaches no
    successor.
    Calls are serialized with a lock, so sharing an instance across worker
    threads is safe.
    """

    def __init__(self, command: Sequence[str], threshold: float = 0.5, timeout: float = ADAPTER_TIMEOUT):
        if not command:
            raise AdapterError("adapter command is empty")
        if not (math.isfinite(timeout) and timeout > 0.0):  # every request would time out at once
            raise UndefinedInputError(f"timeout must be positive and finite, not {timeout!r}")
        if timeout > threading.TIMEOUT_MAX:  # the wait for an answer would overflow
            raise UndefinedInputError(f"timeout {timeout} s exceeds {threading.TIMEOUT_MAX} s")
        self.command = tuple(command)
        self.threshold = _check_threshold(threshold)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._queue: queue.Queue = queue.Queue()  # the lines the current child wrote
        self._lock = threading.Lock()
        self._next_id = 0

    def _ensure_started(self) -> None:
        if self._proc is not None:
            if self._proc.poll() is None:
                return
            self.close()  # its input; poll() has reaped it
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise AdapterError(f"cannot start adapter {self.command!r}: {exc}") from None

        def pump(proc: subprocess.Popen, out: queue.Queue) -> None:
            assert proc.stdout is not None
            with proc.stdout:
                for line in proc.stdout:
                    out.put(line)
            out.put(None)

        self._queue = queue.Queue()
        threading.Thread(target=pump, args=(self._proc, self._queue), daemon=True).start()

    def classify(self, text: str) -> tuple[int, float]:
        normalized = _shared(text).normalized()
        with self._lock:
            # a child can end, its last answer given, just as this request is
            # written to it; scoring is pure, so a new child is asked once more
            score = self._ask(normalized, last_try=False)
            if score is None:
                score = self._ask(normalized, last_try=True)
        return (1 if score >= self.threshold else 0), score

    def _ask(self, normalized: str, last_try: bool) -> float | None:
        """The child's score for one request. When the child's input or
        output ends before it answers, the result is None, or on the last
        try an AdapterError, and the child is closed: the next request
        starts another."""
        self._ensure_started()
        assert self._proc is not None and self._proc.stdin is not None
        self._next_id += 1
        request_id = self._next_id
        try:
            self._proc.stdin.write(json.dumps({"id": request_id, "text": normalized}) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            return self._ended(f"adapter pipe failed: {exc}", last_try)
        deadline = time.monotonic() + self.timeout
        response_id = 0
        # skip late answers to earlier requests that timed out
        while response_id < request_id:
            try:
                raw = self._queue.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise AdapterError(f"adapter did not answer within {self.timeout} s") from None
            if raw is None:
                return self._ended("adapter closed its output stream", last_try)
            try:
                doc = json.loads(raw)
                response_id = doc["id"]
                score = json_number(doc["score"], "adapter score")
            except (json.JSONDecodeError, KeyError, TypeError, SchemaError):
                response_id = None
            # an id of true would match request 1, since True == 1
            if not is_strict_int(response_id):
                raise AdapterError("adapter response is not {id, score}", raw=raw)
        if response_id != request_id:
            raise AdapterError(
                f"adapter answered request {response_id}, expected {request_id}", raw=raw
            )
        if not (0.0 <= score <= 1.0) or not math.isfinite(score):
            raise AdapterError(f"adapter score {score!r} outside [0, 1]", raw=raw)
        return score

    def _ended(self, message: str, last_try: bool) -> None:
        self.close()  # the child can answer nothing more
        if last_try:
            raise AdapterError(message)
        return None

    def close(self) -> None:
        """Stop the child and close its input; the pump thread closes its
        output at end of file."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                self._proc.kill()
                self._proc.wait()
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass  # a request whose write failed is still buffered


LineClassifier = LinearLineClassifier | LookupLineClassifier | AdapterLineClassifier


# --- training ------------------------------------------------------------------


def _design_matrix(rows: Sequence[ScreenText], view: FeatureView):
    """The vocabulary and the design matrix X of the rows under one view.

    vocabulary numbers every feature name that some row has, in sorted
    order. X has one line per row: X[row, vocabulary[name]] is the row's
    value of that feature, and every other cell is 0.

    Each row's features are extracted once, into flat cells rather than
    kept dicts: the name's provisional column, numbered in the order the
    names are first met, and the value. Once the names are sorted, the cells
    are scattered into X in one assignment, each provisional column through
    its name's rank; a row's names are distinct, so no cell is written twice.
    """
    import numpy as np

    provisional: dict[str, int] = {}
    columns = array("i")
    values = array("d")
    lengths = array("i")
    for text in rows:
        features = text.features(view)
        for name in features:
            if name not in provisional:
                provisional[name] = len(provisional)
        columns.extend(map(provisional.__getitem__, features))
        values.extend(features.values())
        lengths.append(len(features))
    vocabulary = {name: idx for idx, name in enumerate(sorted(provisional))}
    rank = np.array(list(map(vocabulary.__getitem__, provisional)), dtype=np.int32)

    # X gets an anonymous mapping of its own, not a block of the malloc heap:
    # its pages go back to the system when training returns, so where an
    # earlier build left its matrix cannot make this one's peak memory a
    # matrix larger
    cells = len(rows) * len(vocabulary)
    X = np.frombuffer(
        mmap.mmap(-1, max(cells, 1) * 8), dtype=float, count=cells
    ).reshape(len(rows), len(vocabulary))
    row_of = np.repeat(np.arange(len(rows)), np.frombuffer(lengths, dtype=np.int32))
    X[row_of, rank[np.frombuffer(columns, dtype=np.int32)]] = np.frombuffer(values, dtype=float)
    return vocabulary, X


def train_classifier(
    samples: Sequence[LineSample], view: FeatureView, hyper: TrainConfig | None = None
) -> LinearLineClassifier:
    """Fit one view's logistic classifier.

    Label 1 means non-vulnerable (benign). The split, the vocabulary order,
    and the optimizer are all deterministic functions of the inputs and the
    seed, so retraining reproduces the model byte for byte. Each sample is
    read through its text's ScreenText, so one with no code (comment-only)
    raises UndefinedInputError, as classifying it would. A LineSample's
    text is one already: a build that trains every view on one sample list,
    held-out check included, tokenizes each sample once.
    """
    import numpy as np
    from scipy.optimize import minimize
    from scipy.special import expit

    hyper = hyper or TrainConfig()
    labels = [1.0 if s.label is LineLabel.NON_VULNERABLE else 0.0 for s in samples]
    if len(set(labels)) < 2:
        raise DegenerateTrainingError(
            f"view {view.value}: training needs both classes, got "
            f"{sorted({s.label.value for s in samples})}"
        )

    # deterministic stratified held-out split; it holds out fewer than all of
    # each class, so both classes stay in training
    rng = random.Random(hyper.seed)
    heldout: set[int] = set()
    for cls in (0.0, 1.0):
        idxs = [i for i, label in enumerate(labels) if label == cls]
        rng.shuffle(idxs)
        heldout.update(idxs[: int(len(idxs) * _HELDOUT_FRACTION)])
    train_idx = [i for i in range(len(labels)) if i not in heldout]

    # each sample is read as the screen reads a line, so the model learns the
    # features it will be scored on
    texts = [_shared(s.text) for s in samples]
    vocabulary, X = _design_matrix([texts[i] for i in train_idx], view)
    y = np.array([labels[i] for i in train_idx])

    def loss_grad(w_full):
        w = w_full[:-1]
        b = w_full[-1]
        z = X @ w + b
        # stable log(1 + exp(-|z|)) formulation
        log_p = -np.logaddexp(0.0, -z)
        log_q = -np.logaddexp(0.0, z)
        nll = -(y * log_p + (1.0 - y) * log_q).mean()
        p = expit(z)
        residual = (p - y) / len(y)
        grad_w = X.T @ residual + 2.0 * hyper.l2 * w
        grad_b = residual.sum()
        value = nll + hyper.l2 * float(w @ w)
        return value, np.concatenate([grad_w, [grad_b]])

    x0 = np.zeros(len(vocabulary) + 1)
    result = minimize(
        loss_grad, x0, jac=True, method="L-BFGS-B", options={"maxiter": hyper.max_iter}
    )
    w_full = result.x
    clf = LinearLineClassifier(
        view=view,
        vocabulary=vocabulary,
        weights=[float(v) for v in w_full[:-1]],
        bias=float(w_full[-1]),
        threshold=hyper.threshold,
        seed=hyper.seed,
    )
    if heldout:
        hits = sum(1 for i in sorted(heldout) if clf.classify(texts[i])[0] == labels[i])
        clf.heldout_accuracy = hits / len(heldout)
    return clf


# --- persistence ----------------------------------------------------------------


def save_model(clf: LineClassifier, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(model_to_dict(clf)), encoding="utf-8")


def model_to_dict(clf: LineClassifier) -> dict:
    """The document save_model writes for clf; SchemaError for a classifier
    that cannot be persisted."""
    if isinstance(clf, LinearLineClassifier):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "view": clf.view.value,
            "vocabulary": clf.vocabulary,
            "weights": clf.weights,
            "bias": clf.bias,
            "threshold": clf.threshold,
            "seed": clf.seed,
            "heldout_accuracy": clf.heldout_accuracy,
        }
    elif isinstance(clf, LookupLineClassifier):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "view": "lookup",
            "non_benign": sorted(clf.non_benign),
            "threshold": clf.threshold,
        }
    elif isinstance(clf, AdapterLineClassifier):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "view": "adapter",
            "command": list(clf.command),
            "threshold": clf.threshold,
            "timeout": clf.timeout,
        }
    else:
        raise SchemaError(f"cannot persist classifier of type {type(clf).__name__}")
    return doc


def _finite_number(value: object, what: str) -> float:
    """A model field as a float; Python's json reads NaN and Infinity, which
    would make a threshold compare false everywhere or a timeout overflow."""
    number = json_number(value, what)
    if not math.isfinite(number):
        raise SchemaError(f"{what} must be finite, not {number!r}")
    return number


def load_model(path: str | Path, adapter_command: str | None = None) -> LineClassifier:
    """Load one persisted classifier.

    For adapter models the spawned command can be redirected without touching
    the file: the TRUSTVET_ADAPTER environment variable wins, then the
    adapter_command argument (the config's adapter_endpoint), then the
    command stored in the document.
    """
    try:
        doc = read_json_object(Path(path).read_bytes(), str(path))
    except FileNotFoundError:
        raise SchemaError(f"model file not found: {path}") from None
    check_schema_version(doc, str(path))
    view = doc.get("view")
    threshold = _finite_number(doc.get("threshold"), f"{path}: threshold")
    try:
        if view == "lookup":
            # frozenset() takes any iterable: a string would load as its characters
            lines = doc["non_benign"]
            if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
                raise SchemaError(f"{path}: non_benign must be a list of strings")
            return LookupLineClassifier(non_benign=frozenset(lines), threshold=threshold)
        if view == "adapter":
            override = os.environ.get(ADAPTER_ENV_VAR) or adapter_command
            command = override.split() if override else doc["command"]
            if not isinstance(command, list) or not all(isinstance(part, str) for part in command):
                raise SchemaError(f"{path}: adapter command must be a list of strings")
            timeout = _finite_number(doc.get("timeout", ADAPTER_TIMEOUT), f"{path}: timeout")
            return AdapterLineClassifier(command, threshold=threshold, timeout=timeout)
        vocabulary = dict(doc["vocabulary"])
        raw_weights = doc["weights"]
        if not isinstance(raw_weights, list):
            raise SchemaError(f"{path}: weights must be a list of numbers")
        weights = [_finite_number(v, f"{path}: weights[{i}]") for i, v in enumerate(raw_weights)]
        if not all(is_strict_int(i) and 0 <= i < len(weights) for i in vocabulary.values()):
            raise SchemaError(f"{path}: vocabulary indices must point into the weights")
        seed = doc["seed"]
        if not is_strict_int(seed):
            raise SchemaError(f"{path}: seed must be an integer, not {seed!r}")
        heldout = doc.get("heldout_accuracy")
        if heldout is not None:
            heldout = _finite_number(heldout, f"{path}: heldout_accuracy")
        return LinearLineClassifier(
            view=FeatureView(view),
            vocabulary=vocabulary,
            weights=weights,
            bias=_finite_number(doc["bias"], f"{path}: bias"),
            threshold=threshold,
            seed=seed,
            heldout_accuracy=heldout,
        )
    except UndefinedInputError as exc:  # a value the classifier itself refuses
        raise SchemaError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed model document ({exc})") from None
