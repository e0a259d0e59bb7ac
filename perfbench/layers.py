"""Which arcpose names the traced run wraps, and the per-layer metrics.

Layers are the `arcpose` modules. `frames` holds leaf conversions called
from every other layer; a span around each would cost more than the call,
so it has none, and its work shows as `sim.sample_pose.attempts_per_pose`
(calls into `euler_to_rotation` from `sim`). `errors` holds only exception
classes and is not a layer.
"""

from __future__ import annotations

from tracer import Patch


def _points(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    return len(points)


def _iterations(args, kwargs, result):
    return result.diagnostics.get("iterations", 0)


HARNESS, SOLVER, SIM, CLI = "arcpose.harness", "arcpose.solver", "arcpose.sim", "arcpose.cli"

PATCHES = (
    # sim, as the runner looks it up
    Patch(HARNESS, "sample_pose", "sim.sample_pose", new_trace=True),
    Patch(HARNESS, "luminaire_visibility", "sim.visibility"),
    Patch(HARNESS, "project_luminaire_burst", "sim.project_burst"),
    Patch(HARNESS, "truncate_arc", "sim.truncate_arc"),
    Patch(HARNESS, "average_observations", "sim.average"),
    Patch(SIM, "euler_to_rotation", None, counter="frames.euler_to_rotation"),
    # conic
    Patch(SIM, "fit_ellipse", "conic.fit_ellipse", count=_points),
    Patch(CLI, "fit_ellipse", "conic.fit_ellipse", count=_points),
    Patch(SOLVER, "cone_from_ellipse", "conic.cone_from_ellipse"),
    Patch(SOLVER, "decompose_cone", "conic.decompose_cone"),
    Patch(SOLVER, "candidate_normals", "conic.candidate_normals"),
    Patch(SOLVER, "luminaire_plane", "conic.luminaire_plane"),
    Patch(SOLVER, "backproject_to_plane", "conic.backproject_to_plane"),
    # solver, as the runner, the dispatcher and a one-frame caller look it up
    Patch(HARNESS, "solve_vpa", "solver.vpa"),
    Patch(HARNESS, "solve_vpca", "solver.vpca"),
    Patch(HARNESS, "solve_oavpa", "solver.oavpa"),
    Patch(HARNESS, "pnp_baseline", "solver.pnp", count=_iterations),
    Patch(SOLVER, "solve_vpa", "solver.vpa"),
    Patch(SOLVER, "solve_vpca", "solver.vpca"),
    Patch(SOLVER, "solve_oavpa", "solver.oavpa"),
    # harness
    Patch(HARNESS, "e_loc", "harness.e_loc"),
    Patch(HARNESS, "e_pos", "harness.e_pos"),
    Patch(CLI, "run_monte_carlo", "harness.runner"),
    Patch(CLI, "summarize_by_algorithm", "harness.summarize"),
    Patch(CLI, "write_results", "harness.write_results"),
    # cli
    Patch(CLI, "observations_from_dict", "cli.observations_from_dict"),
)

# Span groups whose share of the traced time is reported.
GROUPS = {
    "sim.sample_pose": ("sim.sample_pose",),
    "sim.visibility": ("sim.visibility",),
    "sim.project_burst": ("sim.project_burst",),
    "sim.truncate_arc": ("sim.truncate_arc",),
    "sim.average": ("sim.average",),
    "conic.fit_ellipse": ("conic.fit_ellipse",),
    "conic.cone": ("conic.cone_from_ellipse", "conic.decompose_cone",
                   "conic.candidate_normals"),
    "conic.backproject": ("conic.luminaire_plane", "conic.backproject_to_plane"),
    "solver.vpa": ("solver.vpa",),
    "solver.vpca": ("solver.vpca",),
    "solver.oavpa": ("solver.oavpa",),
    "solver.pnp": ("solver.pnp",),
    "harness.metrics": ("harness.e_loc", "harness.e_pos"),
    "harness.runner": ("harness.runner",),
    "harness.summarize": ("harness.summarize",),
    "harness.write_results": ("harness.write_results",),
    "cli.main": ("cli.main",),
    "cli.observations_from_dict": ("cli.observations_from_dict",),
}

# (metric, unit): every per-layer metric, in report order.
METRICS = (
    [
        ("sim.sample_pose.us", "us"),
        ("sim.sample_pose.attempts_per_pose", "count"),
        ("sim.visibility.us", "us"),
        ("sim.project_burst.us", "us"),
        ("sim.truncate_arc.us", "us"),
        ("sim.truncate_arc.calls_per_sample", "count"),
        ("sim.average.us", "us"),
        ("conic.fit_ellipse.us", "us"),
        ("conic.fit_ellipse.points_per_call", "count"),
        ("conic.cone.us", "us"),
        ("conic.backproject.us", "us"),
        ("solver.vpa.us", "us"),
        ("solver.vpca.us", "us"),
        ("solver.oavpa.us", "us"),
        ("solver.pnp.us", "us"),
        ("solver.pnp.iterations_per_solve", "count"),
        ("harness.metrics.us", "us"),
        ("harness.runner.us_per_sample", "us"),
        ("harness.summarize.ms_per_chunk", "ms"),
        ("harness.write_results.ms_per_chunk", "ms"),
        ("harness.write_results.bytes_per_record", "B"),
        ("cli.main.ms_per_chunk", "ms"),
        ("cli.observations_from_dict.us", "us"),
    ]
    + [(f"{group}.share_pct", "%") for group in GROUPS]
    + [("trace.overhead_pct", "%")]
)


def per_layer(tracer, scale: float, samples: int, chunks: int,
              bytes_per_record: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer values from the traced spans.

    Times are self times scaled to the reference host speed. `.us` is per
    call of the named function; `conic.cone.us` is per observation (per cone
    built) and `conic.backproject.us` per luminaire plane located. A layer
    with no calls reads 0.
    """
    self_ns, calls, root_ns = tracer.self_times()

    def us_per(names, denominator):
        total = sum(self_ns.get(n, 0) for n in names)
        return total * scale / 1e3 / denominator if denominator else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {
        "sim.sample_pose.us": us_per(["sim.sample_pose"], calls["sim.sample_pose"]),
        "sim.sample_pose.attempts_per_pose": ratio(
            tracer.counts["frames.euler_to_rotation"], calls["sim.sample_pose"]),
        "sim.truncate_arc.calls_per_sample": ratio(calls["sim.truncate_arc"], samples),
        "conic.fit_ellipse.points_per_call": ratio(
            tracer.counts["conic.fit_ellipse"], calls["conic.fit_ellipse"]),
        "conic.cone.us": us_per(GROUPS["conic.cone"], calls["conic.cone_from_ellipse"]),
        "conic.backproject.us": us_per(
            GROUPS["conic.backproject"], calls["conic.luminaire_plane"]),
        "solver.pnp.iterations_per_solve": ratio(
            tracer.counts["solver.pnp"], calls["solver.pnp"]),
        "harness.metrics.us": us_per(GROUPS["harness.metrics"], calls["harness.e_loc"]),
        "harness.runner.us_per_sample": us_per(["harness.runner"], samples),
        "harness.summarize.ms_per_chunk": us_per(["harness.summarize"], chunks) / 1e3,
        "harness.write_results.ms_per_chunk": us_per(["harness.write_results"], chunks) / 1e3,
        "harness.write_results.bytes_per_record": bytes_per_record,
        "cli.main.ms_per_chunk": us_per(["cli.main"], chunks) / 1e3,
        "trace.overhead_pct": overhead_pct,
    }
    for name in ("sim.visibility", "sim.project_burst", "sim.truncate_arc",
                 "sim.average", "conic.fit_ellipse", "solver.vpa", "solver.vpca",
                 "solver.oavpa", "solver.pnp", "cli.observations_from_dict"):
        m[f"{name}.us"] = us_per([name], calls[name])
    for group, names in GROUPS.items():
        m[f"{group}.share_pct"] = 100.0 * ratio(sum(self_ns.get(n, 0) for n in names),
                                                root_ns)
    return {name: m[name] for name, _ in METRICS}
