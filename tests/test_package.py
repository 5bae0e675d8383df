"""The package surface: its exported names and the README's library example."""

from pathlib import Path

import sigarea

README = Path(__file__).resolve().parent.parent / "README.md"

# The public surface, pinned: a name enters or leaves it only on purpose.
EXPORTED = [
    "AreaSequence", "CcmResult", "ConstantSeries", "DegenerateEmbedding", "DegeneratePath",
    "DirectionVerdict", "DiscoveryResult", "Divergence", "EmptyRange", "GrangerResult",
    "GraphEdge", "InsufficientData", "IoError", "LengthMismatch", "NameTaken",
    "NonMonotonicTime", "NonNumericCell", "NullBand", "Panel", "PairReport",
    "PairTrace", "ParseError", "RaggedRows", "RunConfig", "Series",
    "ShiftProfile", "ShiftTooLarge", "Sig2", "SigAreaError", "SingularDesign",
    "SsadResult", "SystemSpec", "TooShort", "WindowTooLong", "ZeroVariance", "ccm",
    "ccm_many", "chen_concat", "confidence_band", "default_library_sizes", "difference",
    "discover", "f_upper_tail", "gen_four_species", "gen_two_species_bidir",
    "gen_two_species_sync", "gen_white_noise", "generate", "granger", "granger_many",
    "interpolate_uniform", "multiplier", "null_ensemble", "rank_pairs", "read_csv",
    "regularized_incomplete_beta", "scale_unit_range", "shift_profile", "shuffle",
    "signature_depth2", "signed_area", "signed_area_sequence", "ssad",
    "ssad_pair_detail", "ts_savr", "window_count", "write_csv", "write_report",
]


def test_every_exported_name_exists_once():
    names = sigarea.__all__
    assert names == EXPORTED
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sigarea, name)] == []
    # discover is the one entry that scores pairs.
    assert "score_pair" not in names and not hasattr(sigarea, "score_pair")


def test_readme_quick_start_prints_what_its_comment_says(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comment = next(line for line in code.splitlines() if line.startswith("# "))
    expected = comment[2:].split("<-")[0].rstrip()
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == expected
