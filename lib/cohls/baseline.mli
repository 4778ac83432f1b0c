(** The modified conventional synthesis method used as the comparison point
    in the paper's §5.

    The paper upgrades the classical functionality-type flow just enough to
    run on the same inputs: operations and devices are classified by their
    {e component requirements} (not by function names), binding demands an
    exact class match, and the layering + progressive re-synthesis machinery
    is grafted on so indeterminate operations are supported. In this code
    base that is exactly {!Synthesis.run} under {!config}; this module is
    the one definition of the baseline, shared by the CLI and the benches. *)

val config : Synthesis.config -> Synthesis.config
(** The baseline's version of a configuration: the
    {!Binding.Exact_signature} rule, and a zero path weight (the
    conventional method does not optimise transportation paths). *)

val run : ?config:Synthesis.config -> Microfluidics.Assay.t -> Synthesis.result
(** [Synthesis.run] under [config base], where [base] defaults to
    {!Synthesis.default_config}. *)
