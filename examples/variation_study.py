"""Visualize the variation physics that makes symmetry insufficient.

Prints an ASCII heat map of the systematic V_th field over the CM canvas,
shows how each layout style's matched pairs average that field, and runs
the linear-field control experiment — symmetric placement cancels a linear
gradient exactly, and only the non-linear residue is placement-fixable.

Run:
    python examples/variation_study.py
"""

from repro import banded_placement, current_mirror, generic_tech_40
from repro.eval import PlacementEvaluator
from repro.experiments import format_linearity, run_linearity_ablation
from repro.variation import default_variation_model

SHADES = " .:-=+*#%@"


def field_heatmap(model, cols: int, rows: int, pitch: float) -> str:
    values = [
        [model.vth_field.value((c + 0.5) * pitch, (r + 0.5) * pitch)
         for c in range(cols)]
        for r in range(rows)
    ]
    flat = [v for row in values for v in row]
    lo, hi = min(flat), max(flat)
    span = (hi - lo) or 1.0
    lines = []
    for row in values:
        cells = [SHADES[int((v - lo) / span * (len(SHADES) - 1))] for v in row]
        lines.append(" ".join(cells))
    lines.append(f"(dark=low, bright=high; span {span * 1e3:.1f} mV)")
    return "\n".join(lines)


def main() -> None:
    block = current_mirror()
    tech = generic_tech_40()
    cols, rows = block.canvas
    extent = max(block.canvas) * tech.grid_pitch
    model = default_variation_model(extent)

    print("== systematic V_th field over the CM canvas ==")
    print(field_heatmap(model, cols, rows, tech.grid_pitch))

    print("\n== per-pair |delta V_th| under each layout style [uV] ==")
    evaluator = PlacementEvaluator(block, tech=tech, variation=model)
    header = f"{'pair':>12}"
    styles = ("sequential", "ysym", "common_centroid")
    for style in styles:
        header += f"  {style:>16}"
    print(header)
    spreads = {
        style: evaluator.systematic_spread(banded_placement(block, style))
        for style in styles
    }
    for pair in spreads[styles[0]]:
        line = f"{pair:>12}"
        for style in styles:
            line += f"  {spreads[style][pair] * 1e6:16.1f}"
        print(line)

    print("\n== the premise: linear fields are already solved by symmetry ==")
    ablation = run_linearity_ablation("cm", max_steps=250, seed=1)
    print(format_linearity(ablation))
    print("\nUnder 'linear' the best symmetric layout leaves (near) nothing "
          "to optimize; under 'nonlinear' the objective-driven placer finds "
          f"{ablation.gain('nonlinear'):.0f}x lower mismatch than symmetry.")


if __name__ == "__main__":
    main()
