#!/usr/bin/env python3
"""Repo-specific invariant lint — rules no off-the-shelf tool knows.

Six rules, each guarding an invariant the test suite can only probe
point-wise but a static scan can prove tree-wide:

  wire-tags      SketchTypeTag values are unique, every tag has a wire
                 producer (PutHeader) in serialize.cc, and every producer's
                 serializer is locked by tests/golden_bytes_test.cc — a tag
                 without a golden payload can drift silently and corrupt
                 stored catalogs.
  families       Every family in RegisteredFamilies() is exercised by the
                 parameterized family-registry test and has a kernel-backed
                 estimator TU (ActiveKernel() — the EstimateKernel dispatch
                 table), so no family ships outside the scalar/SIMD
                 equivalence net.
  metrics        Every Counter/Gauge/Histogram registration uses an
                 ipsketch_-prefixed snake_case name and appears in README's
                 metric inventory table — the exposition surface is
                 documented or it does not ship.
  raw-mutex      No std::mutex / std::condition_variable / std::lock_guard /
                 std::unique_lock outside src/common/mutex.{h,cc}: every
                 lock goes through the annotated, rank-checked
                 ipsketch::Mutex wrapper.
  fuzz-coverage  Every SketchTypeTag enumerator maps to a fuzz/ harness with
                 a non-empty checked-in seed corpus (plus the store-file and
                 FamilyOptions harnesses) — a wire decoder that is not
                 fuzzed is an untrusted-input surface nobody is probing.
  docs-freshness Every ipsketch_* metric registered in src/ appears in
                 docs/OPERATIONS.md (the operator runbook), every backticked
                 ipsketch_* metric name in that runbook is registered in
                 src/, and every SketchTypeTag enumerator appears in
                 docs/WIRE_FORMAT.md (the normative wire spec) — the docs/
                 tree cannot silently rot behind the code, nor keep rows
                 for metrics the code no longer exports.

Exit status 0 iff the tree is clean; findings go to stdout, one per line,
as `rule: file: message`.

`--self-test` copies the tree to a temp dir, seeds one violation per rule,
and verifies each is caught (and that the pristine copy stays clean) —
the lint's own regression test, run in CI next to the real scan.

Stdlib only; no third-party dependencies.
"""

import argparse
import re
import shutil
import sys
import tempfile
from pathlib import Path

SERIALIZE_H = "src/sketch/serialize.h"
SERIALIZE_CC = "src/sketch/serialize.cc"
GOLDEN_TEST = "tests/golden_bytes_test.cc"
FAMILY_CC = "src/sketch/family.cc"
FAMILY_TEST = "tests/family_registry_test.cc"
README = "README.md"
OPERATIONS_MD = "docs/OPERATIONS.md"
WIRE_FORMAT_MD = "docs/WIRE_FORMAT.md"
MUTEX_ALLOWED = {"src/common/mutex.h", "src/common/mutex.cc"}

# family name -> the translation unit holding its kernel-backed estimator.
# A newly registered family must be added here *and* route its estimator
# through ActiveKernel() (the EstimateKernel dispatch table) — the rule
# fails loudly on an unknown name rather than guessing.
FAMILY_ESTIMATOR_TU = {
    "jl": "src/sketch/jl_sketch.cc",
    "cs": "src/sketch/count_sketch.cc",
    "mh": "src/sketch/minhash.cc",
    "kmv": "src/sketch/kmv.cc",
    "wmh": "src/core/wmh_estimator.cc",
    "icws": "src/core/icws.cc",
    "wmh_compact": "src/sketch/quantize.cc",
    "wmh_bbit": "src/sketch/quantize.cc",
}


# SketchTypeTag enumerator -> the fuzz target exercising its decoder. A new
# wire tag must be added here *and* get a harness under fuzz/ plus seeds from
# tools/make_corpus.py — the rule fails loudly on an unknown enumerator
# rather than guessing.
TAG_FUZZ_TARGET = {
    "kWmh": "fuzz_wmh_decode",
    "kMh": "fuzz_mh_decode",
    "kKmv": "fuzz_kmv_decode",
    "kJl": "fuzz_jl_decode",
    "kCountSketch": "fuzz_cs_decode",
    "kIcws": "fuzz_icws_decode",
    "kSimHash": "fuzz_simhash_decode",
    "kCompactWmh": "fuzz_wmh_compact_decode",
    "kBbitWmh": "fuzz_wmh_bbit_decode",
}
# Untrusted-input surfaces beyond the per-tag sketch decoders.
EXTRA_FUZZ_TARGETS = {
    "fuzz_store_decode": "the store-file loader",
    "fuzz_family_options": "FamilyOptions parsing",
}


def read(root: Path, rel: str) -> str:
    return (root / rel).read_text(encoding="utf-8")


def check_wire_tags(root: Path):
    findings = []
    header = read(root, SERIALIZE_H)
    enum_match = re.search(
        r"enum\s+class\s+SketchTypeTag[^{]*\{(.*?)\}", header, re.DOTALL)
    if enum_match is None:
        return [f"wire-tags: {SERIALIZE_H}: SketchTypeTag enum not found"]
    tags = re.findall(r"(k\w+)\s*=\s*(\d+)", enum_match.group(1))
    if not tags:
        return [f"wire-tags: {SERIALIZE_H}: no SketchTypeTag enumerators"]

    seen = {}
    for name, value in tags:
        if value in seen:
            findings.append(
                f"wire-tags: {SERIALIZE_H}: tag {name} reuses wire value "
                f"{value} (already {seen[value]}) — stored payloads become "
                "ambiguous")
        seen.setdefault(value, name)

    # Map each tag to the serializer that emits it: PutHeader(...kTag)
    # inside `std::string SerializeX(...)`.
    impl = read(root, SERIALIZE_CC)
    producers = {}  # tag name -> serializer function name
    for fn_match in re.finditer(r"std::string\s+(Serialize\w+)\(", impl):
        body_start = fn_match.end()
        header_use = re.search(
            r"PutHeader\(\s*&\w+,\s*SketchTypeTag::(k\w+)\s*\)",
            impl[body_start:body_start + 2000])
        if header_use:
            producers.setdefault(header_use.group(1), fn_match.group(1))

    golden = read(root, GOLDEN_TEST)
    for name, _value in tags:
        serializer = producers.get(name)
        if serializer is None:
            findings.append(
                f"wire-tags: {SERIALIZE_CC}: tag {name} has no "
                "PutHeader producer — dead wire value or unregistered "
                "serializer")
        elif serializer not in golden:
            findings.append(
                f"wire-tags: {GOLDEN_TEST}: tag {name} ({serializer}) has "
                "no golden-bytes lock — add a pinned-payload test so the "
                "format cannot drift")
    return findings


def registered_families(root: Path):
    src = read(root, FAMILY_CC)
    fn = re.search(
        r"RegisteredFamilies\(\)\s*\{(.*?)\n\}", src, re.DOTALL)
    if fn is None:
        return None
    return re.findall(r'\{\s*"(\w+)"\s*,\s*"', fn.group(1))


def check_families(root: Path):
    findings = []
    families = registered_families(root)
    if not families:
        return [f"families: {FAMILY_CC}: RegisteredFamilies() not found"]

    test = read(root, FAMILY_TEST)
    # ValuesIn(RegisteredFamilies()) covers every family by construction;
    # an explicit list must name each one.
    if "ValuesIn(RegisteredFamilies())" not in test:
        for family in families:
            if f'"{family}"' not in test:
                findings.append(
                    f"families: {FAMILY_TEST}: family '{family}' missing "
                    "from the parameterized family-registry test list")

    for family in families:
        tu = FAMILY_ESTIMATOR_TU.get(family)
        if tu is None:
            findings.append(
                f"families: {FAMILY_CC}: family '{family}' has no estimator "
                "TU mapping in tools/lint_invariants.py — add it and route "
                "the estimator through ActiveKernel()")
        elif "ActiveKernel()" not in read(root, tu):
            findings.append(
                f"families: {tu}: family '{family}' estimator does not use "
                "ActiveKernel() — it bypasses the EstimateKernel dispatch "
                "table and the scalar/SIMD equivalence net")
    return findings


METRIC_CALL = re.compile(
    r"Get(?:Counter|Gauge|Histogram)\(\s*\"((?:[^\"\\]|\\.)*)\"")
METRIC_NAME = re.compile(r"^ipsketch_[a-z0-9]+(?:_[a-z0-9]+)*$")


def check_metrics(root: Path):
    findings = []
    inventory = read(root, README)
    for path in sorted((root / "src").rglob("*.cc")):
        rel = path.relative_to(root).as_posix()
        for match in METRIC_CALL.finditer(path.read_text(encoding="utf-8")):
            literal = match.group(1)
            # Label blocks are appended at runtime ("...occupancy{shard=...");
            # the convention applies to the base name.
            base = literal.split("{")[0]
            if not METRIC_NAME.match(base):
                findings.append(
                    f"metrics: {rel}: metric '{base}' violates the "
                    "ipsketch_<snake_case> naming convention")
                continue
            unprefixed = base[len("ipsketch_"):]
            if f"`{unprefixed}" not in inventory:
                findings.append(
                    f"metrics: {rel}: metric '{base}' is not documented in "
                    f"{README}'s metric inventory table")
    return findings


RAW_MUTEX = re.compile(
    r"std::(?:mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b"
    r"|#include\s*<(?:mutex|condition_variable)>")


def check_raw_mutex(root: Path):
    findings = []
    for top in ("src", "tests", "bench"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel in MUTEX_ALLOWED:
                continue
            for i, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                if RAW_MUTEX.search(line):
                    findings.append(
                        f"raw-mutex: {rel}:{i}: raw standard-library lock "
                        "primitive — use ipsketch::Mutex/MutexLock/CondVar "
                        "(common/mutex.h) so the thread-safety annotations "
                        "and the lock-rank checker see it")
    return findings


def check_fuzz_coverage(root: Path):
    findings = []
    header = read(root, SERIALIZE_H)
    enum_match = re.search(
        r"enum\s+class\s+SketchTypeTag[^{]*\{(.*?)\}", header, re.DOTALL)
    if enum_match is None:
        return [f"fuzz-coverage: {SERIALIZE_H}: SketchTypeTag enum not found"]

    surfaces = []  # (what the target guards, target name)
    for name, _value in re.findall(r"(k\w+)\s*=\s*(\d+)", enum_match.group(1)):
        target = TAG_FUZZ_TARGET.get(name)
        if target is None:
            findings.append(
                f"fuzz-coverage: {SERIALIZE_H}: tag {name} has no fuzz-target "
                "mapping in tools/lint_invariants.py — add one, a fuzz/ "
                "harness, and seeds in tools/make_corpus.py")
            continue
        surfaces.append((f"tag {name}", target))
    surfaces += [(what, target) for target, what in EXTRA_FUZZ_TARGETS.items()]

    for what, target in surfaces:
        harness = root / "fuzz" / f"{target}.cc"
        if not harness.is_file():
            findings.append(
                f"fuzz-coverage: fuzz/{target}.cc: missing fuzz harness for "
                f"{what}")
        corpus = root / "fuzz" / "corpus" / target
        if not any(p.is_file() for p in corpus.glob("*")):
            findings.append(
                f"fuzz-coverage: fuzz/corpus/{target}: no checked-in seed "
                f"for {what} — run tools/make_corpus.py and commit the "
                "seeds")
    return findings


# A backticked, fully prefixed metric name in the runbook (`ipsketch_` alone
# or `ipsketch_*` are prose about the prefix, not metric names).
DOCUMENTED_METRIC = re.compile(r"`(ipsketch_[a-z0-9]+(?:_[a-z0-9]+)*)`")


def check_docs_freshness(root: Path):
    findings = []
    for rel in (OPERATIONS_MD, WIRE_FORMAT_MD):
        if not (root / rel).is_file():
            findings.append(
                f"docs-freshness: {rel}: missing — the docs/ tree ships "
                "with the code")
    if findings:
        return findings

    # Every registered metric has a row in the operator runbook. Names are
    # documented fully prefixed (unlike README's inventory, which strips
    # the ipsketch_ prefix).
    ops = read(root, OPERATIONS_MD)
    registered = set()
    reported = set()
    for path in sorted((root / "src").rglob("*.cc")):
        rel = path.relative_to(root).as_posix()
        for match in METRIC_CALL.finditer(path.read_text(encoding="utf-8")):
            base = match.group(1).split("{")[0]
            registered.add(base)
            # Malformed names are the metrics rule's finding, not ours.
            if not METRIC_NAME.match(base) or base in reported:
                continue
            if f"`{base}`" not in ops:
                reported.add(base)
                findings.append(
                    f"docs-freshness: {rel}: metric '{base}' is not "
                    f"documented in {OPERATIONS_MD} — operators cannot "
                    "alert on a metric they cannot look up")

    # ...and in reverse: every metric the runbook names is still exported.
    for name in sorted(set(DOCUMENTED_METRIC.findall(ops))):
        if name not in registered:
            findings.append(
                f"docs-freshness: {OPERATIONS_MD}: metric '{name}' is "
                "documented but no src/ file registers it — operators "
                "would alert on a series that never arrives")

    # Every wire tag enumerator is specified in the wire-format doc.
    header = read(root, SERIALIZE_H)
    enum_match = re.search(
        r"enum\s+class\s+SketchTypeTag[^{]*\{(.*?)\}", header, re.DOTALL)
    if enum_match is None:
        findings.append(
            f"docs-freshness: {SERIALIZE_H}: SketchTypeTag enum not found")
        return findings
    wire = read(root, WIRE_FORMAT_MD)
    for name, _value in re.findall(r"(k\w+)\s*=\s*(\d+)",
                                   enum_match.group(1)):
        if f"`{name}`" not in wire:
            findings.append(
                f"docs-freshness: {SERIALIZE_H}: wire tag {name} is not "
                f"documented in {WIRE_FORMAT_MD} — the spec no longer "
                "describes the format it claims to be normative for")
    return findings


RULES = {
    "wire-tags": check_wire_tags,
    "families": check_families,
    "metrics": check_metrics,
    "raw-mutex": check_raw_mutex,
    "fuzz-coverage": check_fuzz_coverage,
    "docs-freshness": check_docs_freshness,
}


def run_all(root: Path):
    findings = []
    for check in RULES.values():
        findings.extend(check(root))
    return findings


# --- self-test ---------------------------------------------------------------

def seed_wire_tags(root: Path):
    path = root / SERIALIZE_H
    # Duplicate wire value: give the last enumerator the first one's value.
    text = path.read_text(encoding="utf-8")
    path.write_text(
        re.sub(r"(kBbitWmh\s*=\s*)\d+", r"\g<1>1", text), encoding="utf-8")


def seed_families(root: Path):
    path = root / FAMILY_CC
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        'return *families;',
        'const_cast<std::vector<FamilyInfo>*>(families)->push_back(\n'
        '      {"phantom", "PH", StorageClass::kLinear, true, true, false});\n'
        '  return *families;', 1)
    assert seeded != text, "family seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_metrics(root: Path):
    path = root / "src/service/metrics.cc"
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        "namespace metrics {",
        "namespace metrics {\n"
        "inline void UndocumentedMetricForLintSelfTest() {\n"
        '  MetricsRegistry::Global().GetCounter("BadName_total", "seeded");\n'
        "}", 1)
    assert seeded != text, "metrics seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_raw_mutex(root: Path):
    path = root / "src/service/query_engine.cc"
    with path.open("a", encoding="utf-8") as f:
        f.write("\n// seeded by lint self-test\nstatic std::mutex lint_mu;\n")


def seed_fuzz_coverage(root: Path):
    # Empty one per-tag corpus: the tag still has a harness, but no seed.
    corpus = root / "fuzz" / "corpus" / "fuzz_kmv_decode"
    for path in corpus.glob("*"):
        path.unlink()


def seed_docs_metric(root: Path):
    # A well-formed metric registration nowhere in docs/OPERATIONS.md.
    path = root / "src/service/metrics.cc"
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        "namespace metrics {",
        "namespace metrics {\n"
        "inline void UndocumentedDocsMetricForLintSelfTest() {\n"
        '  MetricsRegistry::Global().GetCounter("ipsketch_phantom_total",\n'
        '                                       "seeded");\n'
        "}", 1)
    assert seeded != text, "docs metric seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_docs_phantom_metric(root: Path):
    # A runbook row for a metric no src/ file registers (e.g. one whose
    # registration was deleted while its documentation lingered).
    path = root / OPERATIONS_MD
    with path.open("a", encoding="utf-8") as f:
        f.write("\n| `ipsketch_phantom_documented_ns` | histogram | "
                "seeded by lint self-test |\n")


def seed_docs_wire_tag(root: Path):
    # A new wire tag the wire-format doc has never heard of.
    path = root / SERIALIZE_H
    text = path.read_text(encoding="utf-8")
    seeded = text.replace("  kBbitWmh = 9,",
                          "  kBbitWmh = 9,\n  kPhantom = 10,", 1)
    assert seeded != text, "docs wire-tag seed did not apply"
    path.write_text(seeded, encoding="utf-8")


# rule -> (seed label, seed fn) pairs; each seed is planted in its own tree
# copy and must be caught by its rule independently.
SEEDS = {
    "wire-tags": [("duplicate wire value", seed_wire_tags)],
    "families": [("unmapped family", seed_families)],
    "metrics": [("unprefixed metric", seed_metrics)],
    "raw-mutex": [("raw std::mutex", seed_raw_mutex)],
    "fuzz-coverage": [("emptied seed corpus", seed_fuzz_coverage)],
    "docs-freshness": [
        ("undocumented metric", seed_docs_metric),
        ("phantom documented metric", seed_docs_phantom_metric),
        ("undocumented wire tag", seed_docs_wire_tag),
    ],
}


def copy_tree(root: Path, dest: Path):
    for top in ("src", "tests", "bench", "tools", "fuzz", "docs"):
        if (root / top).is_dir():
            shutil.copytree(root / top, dest / top)
    shutil.copy(root / README, dest / README)


def self_test(root: Path) -> int:
    baseline = run_all(root)
    if baseline:
        print("self-test: tree must be clean before seeding; found:")
        print("\n".join(f"  {f}" for f in baseline))
        return 1
    failures = 0
    for rule, seeds in SEEDS.items():
        for label, seed in seeds:
            with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
                seeded_root = Path(tmp)
                copy_tree(root, seeded_root)
                seed(seeded_root)
                caught = [f for f in run_all(seeded_root)
                          if f.startswith(rule)]
                if caught:
                    print(f"self-test: {rule}: caught {label} — OK")
                else:
                    print(f"self-test: {rule}: {label} NOT caught")
                    failures += 1
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root (default: the lint's parent repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed one violation per rule in a tree copy "
                             "and verify each is caught")
    args = parser.parse_args()
    root = args.root or Path(__file__).resolve().parent.parent

    if args.self_test:
        return self_test(root)

    findings = run_all(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
