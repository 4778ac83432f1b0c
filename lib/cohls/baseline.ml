(* The conventional method predates the paper's contribution III: it does
   not optimise the number of transportation paths, so the routing-effort
   weight is zeroed alongside forcing the exact-signature binding rule. *)
let config (base : Synthesis.config) =
  {
    base with
    Synthesis.rule = Binding.Exact_signature;
    weights = { base.Synthesis.weights with Schedule.w_paths = 0 };
  }

let run ?config:(base = Synthesis.default_config) assay =
  Synthesis.run ~config:(config base) assay
