#!/usr/bin/env python3
"""Keeps README.md's `LvrmConfig` reference table complete and current.

Parses `src/lvrm/config.hpp` for every field of `LvrmConfig` — recursing
into the nested config structs defined in the same header (HealthConfig,
OverloadConfig, StateReplicationConfig, ...) — and fails if a field has no
backticked mention in README.md's configuration-reference table. A nested
field `overload_control.sample_watermark` is satisfied by either the
dotted form or the bare field name (the table groups related knobs into
one row, e.g. "`overload_control.escalate_pressure` / `relax_pressure`").
Struct-typed fields whose definition lives in another header (the obs::
configs) are satisfied by any documented `member.*` knob.

It also fails on stale rows: every backticked name in the table's first
column (cells split on `/`) must be an `LvrmConfig` field, a nested field
in dotted or bare form, or a member of one of the obs:: configs (parsed
from `src/obs/*.hpp`). The same rule holds for the gating notes of
docs/METRICS.md ("registered **only when `X`**"): `X` must name a field, so
a metric's note cannot outlive the knob that gated it.

Usage: check_config_docs.py [ROOT]
Prints every undocumented field, every stale name and every stale gate, and
exits non-zero if any were found.
"""
import pathlib
import re
import sys

STRUCT = re.compile(r"^struct\s+(\w+)\s*\{", re.MULTILINE)
# "type name = default;" or "type name;" at one level of struct nesting.
# Types may be qualified / templated (std::uint64_t, obs::TracingConfig,
# std::vector<net::Prefix>); methods and using-decls don't match.
FIELD = re.compile(
    r"^\s{2}(?:static\s+)?(?:constexpr\s+)?"
    r"(?P<type>[\w:]+(?:<[^;=(){}]*>)?)\s+"
    r"(?P<name>\w+)\s*(?:=\s*[^;]+)?;",
    re.MULTILINE,
)
TABLE_HEADING = "### Configuration reference (`LvrmConfig`)"
# "**only when `X`**" — the note may wrap across lines.
GATE = re.compile(r"\*\*only\s+when\s+`([^`]+)`")


def struct_bodies(text):
    """Map struct name -> body text (brace-matched, tolerates nesting)."""
    bodies = {}
    for m in STRUCT.finditer(text):
        depth, i = 1, m.end()
        while i < len(text) and depth:
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        bodies[m.group(1)] = text[m.end():i - 1]
    return bodies


def fields_of(body):
    return [(m.group("type"), m.group("name")) for m in FIELD.finditer(body)]


def table_names(readme_text):
    """Backticked names in the first column of the configuration table."""
    lines = readme_text.splitlines()
    if TABLE_HEADING not in lines:
        return []
    names = []
    in_table = False
    for line in lines[lines.index(TABLE_HEADING) + 1:]:
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        first_cell = line.split("|")[1]
        for part in first_cell.split("/"):
            names += re.findall(r"`([^`]+)`", part)
    return names


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    header = root / "src" / "lvrm" / "config.hpp"
    readme = root / "README.md"
    bodies = struct_bodies(header.read_text(encoding="utf-8"))
    if "LvrmConfig" not in bodies:
        print(f"error: no LvrmConfig struct found in {header}")
        return 1
    obs_bodies = {}
    for path in sorted((root / "src" / "obs").glob("*.hpp")):
        obs_bodies.update(struct_bodies(path.read_text(encoding="utf-8")))
    readme_text = readme.read_text(encoding="utf-8")
    # Strip fenced code blocks first: a ``` fence is itself a backtick run,
    # and pairing backticks across fences would swallow the inline code
    # spans between them.
    prose = re.sub(r"^```.*?^```$", "", readme_text,
                   flags=re.MULTILINE | re.DOTALL)
    documented = set(re.findall(r"`([^`]+)`", prose))

    missing = []
    known = set()
    for ftype, name in fields_of(bodies["LvrmConfig"]):
        known.add(name)
        base = ftype.rsplit("::", 1)[-1]
        if base in bodies:  # nested config struct defined in this header
            for _, sub in fields_of(bodies[base]):
                known.update((f"{name}.{sub}", sub))
                if f"{name}.{sub}" not in documented and sub not in documented:
                    missing.append(f"{name}.{sub}")
        elif ftype.startswith("obs::"):  # documented knob-by-knob elsewhere
            for _, sub in fields_of(obs_bodies.get(base, "")):
                known.update((f"{name}.{sub}", sub))
            if not any(d.startswith(f"{name}.") for d in documented):
                missing.append(f"{name}.*")
        elif name not in documented:
            missing.append(name)
    stale = [n for n in table_names(readme_text) if n.strip() not in known]
    metrics = root / "docs" / "METRICS.md"
    gates = GATE.findall(metrics.read_text(encoding="utf-8"))
    stale_gates = sorted({g for g in gates if g.strip() not in known})

    if missing:
        print(f"{readme}: LvrmConfig fields missing from the configuration "
              f"reference table (add a backticked row per field):")
        for name in missing:
            print(f"  {name}")
    if stale:
        print(f"{readme}: configuration reference rows name things that are "
              f"not LvrmConfig fields (remove or rename the row):")
        for name in stale:
            print(f"  {name}")
    if stale_gates:
        print(f"{metrics}: gating notes name things that are not LvrmConfig "
              f"fields (update the note to the knob that gates the metric):")
        for name in stale_gates:
            print(f"  {name}")
    if missing or stale or stale_gates:
        return 1
    print(f"check_config_docs: every LvrmConfig field of {header.name} is "
          f"documented in {readme.name}, and every row and gating note "
          f"names a field")
    return 0


if __name__ == "__main__":
    sys.exit(main())
