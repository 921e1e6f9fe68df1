"""Workload definitions for the talbotlau benchmark.

Each workload is one ``talbotlau`` CLI command plus the config keys it
overrides. The benchmark's ``--seed`` feeds ``[run] seed`` and nothing
else; at this commit only ``field-readout`` (random per-slit phase) has
inputs that depend on it. README.md in this directory says why each
workload exists.
"""

from dataclasses import dataclass, field

DEFAULT_SEED = 12345

# Forced small grid for the self-test: narrow slits keep a 2,049-point grid
# inside the sampling criterion, so every layer still runs.
TINY_OVERRIDES = {
    "beamline": {
        "source_slit_width": "1e-6",
        "second_slit_width": "1e-6",
        "grid_points": "2049",
        "n_sources": "2",
    },
    "sweep": {"n_offsets": "8", "energy_points": "2", "current_points": "3"},
}

# talbotlau defaults for the size fields the summary reports
_DEFAULT_SIZES = {"n_sources": 32, "n_offsets": 16, "energy_points": 23}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: dict = field(default_factory=dict)
    # CSV columns whose values depend on the seed; the rest must match the
    # stored reference at every seed
    seeded_columns: tuple = ()

    def config_text(self, seed: int, tiny: bool = False) -> str:
        sections = _merge(self.overrides, TINY_OVERRIDES if tiny else {})
        sections.setdefault("run", {})["seed"] = str(seed)
        lines = []
        for name, keys in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
        return "\n".join(lines) + "\n"

    def sizes(self, tiny: bool = False) -> dict:
        """Work sizes fixed by the config: sources, offsets, energies, scans."""
        merged = _merge(self.overrides, TINY_OVERRIDES if tiny else {})

        def get(section, key):
            return int(merged.get(section, {}).get(key, _DEFAULT_SIZES[key]))

        energies = get("sweep", "energy_points") if self.command == "sweep-energy" else 1
        return {
            "sources": get("beamline", "n_sources"),
            "offsets": get("sweep", "n_offsets"),
            "energies": energies,
            "scans": energies,
        }


def _merge(base: dict, extra: dict) -> dict:
    out = {name: dict(keys) for name, keys in base.items()}
    for name, keys in extra.items():
        out.setdefault(name, {}).update(keys)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        # default config: 32 sources x 3 legs of 878,460-point FFTs
        Workload("fringe-wide", "fringe"),
        # 23 energies x 32 sources x 3 legs = 2,208 small propagations
        Workload(
            "sweep-narrow",
            "sweep-energy",
            {"beamline": {"second_slit_width": "2e-6"}},
        ),
        # 256 G3 offset masks and 61 readouts dominate; the seed sets the
        # per-slit random phase
        Workload(
            "field-readout",
            "sweep-field",
            {
                "beamline": {
                    "n_sources": "4",
                    "random_phase_max": "0.5",
                    "image_charge_strength": "1e-9",
                },
                "sweep": {"n_offsets": "256"},
            },
            seeded_columns=("throughput",),
        ),
    )
}
