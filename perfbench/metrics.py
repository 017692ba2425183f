"""What each per-layer metric is expected to move, and where.

Metric names, units and `better` live in BENCHMARK.json alone; run.py reads
them from there.  BENCHMARK.json has no room for these expectations, so they
live here and the traced report prints them beside each value:

    name -> (end-to-end metric it should move,
             workloads where its layer does the most / the least work)
"""

EXPECTS = {
    "core.assoc_s": ("wall_s", "certify-large, catalog-sweep, structure / replay-tamper"),
    "core.assoc_calls": ("wall_s", "structure (load once: 2 -> 1 per loaded document)"),
    "core.closure_s": ("wall_s, job_p90_s", "certify-large, catalog-sweep / structure"),
    "core.closure_calls": ("wall_s", "certify-large / structure"),
    "core.closure_unions": ("wall_s", "certify-large / structure"),
    "core.closure_merge_ratio": ("wall_s", "certify-large, catalog-sweep / structure"),
    "core.congruence_validate_s": ("wall_s", "certify-large / catalog-sweep"),
    "core.congruence_validate_calls": ("wall_s", "certify-large / catalog-sweep"),
    "core.enumerate_s": ("job_p90_s", "structure / all others"),
    "core.enumerate_lattice_size": ("job_p90_s", "structure / all others"),
    "core.inverse_s": ("job_p90_s", "structure / all others"),
    "semigroups.table_s": ("wall_s", "certify-large / replay-tamper"),
    "semigroups.carrier_max": ("wall_s", "certify-large / structure"),
    "topo.presentation_s": ("job_p90_s, wall_s", "structure / certify-large"),
    "topo.basis_check_s": ("job_p90_s, wall_s", "structure / certify-large"),
    "topo.checks_s": ("job_p90_s, wall_s", "structure / certify-large"),
    "obstruct.instance_s": ("wall_s", "certify-large / replay-tamper"),
    "obstruct.search_s": ("wall_s", "certify-large / replay-tamper"),
    "obstruct.branches": ("wall_s", "certify-large / replay-tamper"),
    "obstruct.chain_steps": ("wall_s", "certify-large / replay-tamper"),
    "obstruct.verify_s": ("wall_s, job_p90_s", "replay-tamper / structure"),
    "obstruct.verify_closure_s": ("wall_s, job_p90_s", "replay-tamper / structure"),
    "obstruct.verify_rejects": ("wall_s", "replay-tamper / structure"),
    "obstruct.doc_s": ("wall_s", "replay-tamper, catalog-sweep / structure"),
    "embed.build_s": ("wall_s, job_p90_s", "structure / all others"),
    "embed.hom_pairs": ("wall_s, job_p90_s", "structure / all others"),
    "embed.audit_s": ("wall_s, job_p90_s", "structure / all others"),
    "embed.separating_opens_s": ("wall_s, job_p90_s", "structure / all others"),
    "transforms.compose_s": ("wall_s", "structure / all others"),
    "transforms.compose_calls": ("wall_s", "structure / all others"),
    "transforms.agree_calls": ("wall_s", "structure / all others"),
    "cli.main_self_s": ("job_p50_s, wall_s", "catalog-sweep (p50), certify-large / replay-tamper"),
    "cli.emit_s": ("wall_s", "certify-large, catalog-sweep / replay-tamper"),
    "cli.emit_bytes": ("wall_s", "certify-large / replay-tamper"),
    "cli.load_s": ("job_p50_s", "structure / certify-large"),
    "trace.overhead_frac": ("(none)", "all"),
    "trace.unattributed_s": ("(none)", "all"),
}
