"""In-memory span recorder, the wrappers that feed it, and per-layer metrics.

install() wraps every public function and public method defined in the
``conjugations`` modules, plus ``scipy.linalg.schur`` as ``spectral`` imports
it, and rebinds each wrapper at every import site inside the package, so
calls between modules are recorded too.  A span is
(name, start, end, parent span, job id, raised, note); spans stay in memory
until the run writes them out.  This module imports nothing heavy, so the CLI
child can time ``import conjugations.cli`` after importing it.
"""

import functools
import inspect
import json
import statistics
import sys
import time

NAME, START, END, PARENT, JOB, RAISED, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def begin(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1,
                           self.job, False, None])
        self.stack.append(sid)
        return sid

    def end(self, sid, raised=False, note=None):
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[RAISED] = raised
        span[NOTE] = note
        self.stack.pop()

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(sid, raised=True)
                raise
            self.end(sid, note=note(result) if note else None)
            return result

        return traced


# Extra facts recorded on a span from the call's return value.
NOTES = {"spectral.diagonalize_unitary": lambda spectrum: len(spectrum.clusters)}


def install(tracer):
    """Wrap the library's public callables; returns a function undoing it."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "conjugations" or name.startswith("conjugations."))]
    wrappers = {}  # id(original) -> wrapper
    undo = []
    for mod in mods:
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, NOTES.get(name))
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, mname, tracer.wrap(f"{layer}.{attr}.{mname}", meth))
                        undo.append((obj, mname, meth))
    spectral = sys.modules["conjugations.spectral"]
    wrappers[id(spectral.schur)] = tracer.wrap("spectral.schur", spectral.schur)
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
                undo.append((mod, attr, obj))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def dump(spans, path):
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# Per-layer metrics: (kind, span names).  "total" sums the outermost spans of
# the group, "self" subtracts the time covered by child spans, "calls"
# counts spans.  Values are per job.
LAYER_SPANS = {
    "cli.load_s": ("total", ("cli.load_json",)),
    "cli.parse_s": ("total", ("cli.matrix_from_dict",)),
    "cli.encode_s": ("total", ("cli.matrix_to_dict",)),
    "cli.write_s": ("total", ("cli.save_json", "cli.emit")),
    "spectral.schur_s": ("total", ("spectral.schur",)),
    "spectral.schur_calls_per_job": ("calls", ("spectral.schur",)),
    "spectral.diagonalize_self_s": ("self", ("spectral.diagonalize_unitary",)),
    "spectral.canonical_form_self_s": ("self", ("spectral.canonical_form",)),
    "family.sample_self_s": ("self", ("family.sample",)),
    "family.verify_membership_self_s": ("self", ("family.verify_membership",)),
    "family.decompose_self_s": ("self", ("family.decompose",)),
    "family.from_params_self_s": ("self", ("family.from_params",)),
    "antilinear.transport_s": ("total", ("antilinear.transport",)),
    "antilinear.is_conjugation_s": ("total", ("antilinear.is_conjugation",)),
    "antilinear.commutation_defect_s": ("total", ("antilinear.commutation_defect",)),
    "antilinear.symmetry_defect_s": ("total", ("antilinear.symmetry_defect",)),
    "linalg.unitarity_defect_s": ("total", ("linalg.unitarity_defect",)),
    "linalg.unitarity_defect_calls_per_job": ("calls", ("linalg.unitarity_defect",)),
    "linalg.haar_unitary_s": ("total", ("linalg.haar_unitary",)),
    "linalg.symmetric_unitary_s": ("total", ("linalg.symmetric_unitary",)),
    "linalg.four_unitary_split_s": ("total", ("linalg.four_unitary_split",)),
    "measures.field_report_s": ("total", ("measures.field_conjugation_report",)),
    "measures.weighted_inner_calls_per_job": ("calls", ("measures.weighted_inner",)),
    "measures.is_reflection_symmetric_s": ("total", ("measures.is_reflection_symmetric",)),
    "measures.assemble_model_s": ("total", ("measures.assemble_model",)),
    "measures.invariance_probe_s": ("total", ("measures.invariance_probe",)),
    "shifts.dense_matrix_s": ("total", ("shifts.ModelConjugation.matrix",)),
    "shifts.defects_s": ("total", (
        "shifts.ModelConjugation.isometry_defect",
        "shifts.ModelConjugation.involution_defect",
        "shifts.ModelConjugation.commutation_defect",
    )),
    "shifts.extract_symbol_s": ("total", ("shifts.extract_symbol",)),
    "shifts.apply_calls_per_job": ("calls", ("shifts.ModelConjugation.apply",)),
    "transforms.build_s": ("total", (
        "transforms.fourier_conjugation",
        "transforms.hilbert_conjugation",
        "transforms.FourBlockModel.matrix",
        "transforms.TwoBlockModel.matrix",
    )),
    "transforms.eigen_check_s": ("total", ("transforms.dft_eigen_check",)),
}


def job_metrics(spans):
    """Per-layer values of one job's spans (parents index into the same list)."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]

    def outermost(i, names):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return False
            p = spans[p][PARENT]
        return True

    out = {}
    for metric, (kind, names) in LAYER_SPANS.items():
        idx = [i for i, s in enumerate(spans) if s[NAME] in names]
        if kind == "calls":
            out[metric] = len(idx)
        elif kind == "self":
            out[metric] = sum(spans[i][END] - spans[i][START] - children[i] for i in idx)
        else:
            out[metric] = sum(spans[i][END] - spans[i][START] for i in idx if outermost(i, names))
    clusters = [s[NOTE] for s in spans if s[NAME] == "spectral.diagonalize_unitary" and s[NOTE]]
    out["spectral.clusters_per_call"] = statistics.median(clusters) if clusters else 0
    # calls into spectral from outside it that ended in an exception
    out["spectral.raised"] = sum(
        1 for s in spans
        if s[RAISED] and s[NAME].startswith("spectral.")
        and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("spectral."))
    )
    return out
