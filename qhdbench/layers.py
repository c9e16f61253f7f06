"""The public qhd functions the traced run wraps, and the per-layer metric
names built from them; shared by the worker and the runner."""

ALGEBRA = ("multiply", "merge_pair", "solve_linear", "leg_embed", "split_leg",
           "apply_leg", "tensor_product")
QUASIHOPF = ("twist_candidates", "compute_qR_pL", "compute_U_Vtilde",
             "check_quasi_bialgebra", "check_quasi_antipode", "check_twist_identities",
             "check_qp_identities", "check_lemma41")
HEISENBERG = ("build_H1", "build_H1_dual", "canonical_elements", "check_double",
              "check_theorem_4_4", "check_theorem_4_5", "probe_invertibility")
TWISTED = ("check_cocycle", "build_k_omega_G", "closed_form_double",
           "closed_form_elements", "check_section5_expansions")
CTX = ("derived", "doubles", "elements")
SUITES = ("axioms", "twist", "lemma41", "heisenberg", "theorems", "section5",
          "invertibility")


def per_layer_names() -> list:
    names = ["scalar.mul.calls", "scalar.inverse.calls", "scalar.inverse.distinct_ratio"]
    for f in ALGEBRA:
        names += [f"algebra.{f}.calls", f"algebra.{f}.self_s"]
    names += ["algebra.multiply.in_nnz", "algebra.multiply.out_nnz",
              "algebra.solve_linear.rows", "algebra.solve_linear.nnz"]
    for f in QUASIHOPF:
        names += [f"quasihopf.{f}.calls", f"quasihopf.{f}.self_s"]
    names += [f"heisenberg.{f}.self_s" for f in HEISENBERG]
    names.append("twisted.check_cocycle.calls")
    names += [f"twisted.{f}.self_s" for f in TWISTED]
    names += ["report.checks", "report.compared_nnz", "report.compare.self_s",
              "report.render.self_s", "cli.parse_input.self_s"]
    names += [f"cli.suite.{s}.self_s" for s in SUITES]
    names += [f"cli.ctx.{c}.s" for c in CTX]
    names.append("trace.overhead")
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"
