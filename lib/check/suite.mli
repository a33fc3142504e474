(** Checking-suite driver: runs the invariant validator and the
    differential oracle over registered benchmarks and over
    coverage-guided random programs. Used by [dmp check] and the test
    suite. *)

open Dmp_ir
open Dmp_core
open Dmp_workload

val configs : (string * Select.config) list
(** The selection configurations every program is validated under
    (the paper's all-best-heur and all-best-cost). *)

val mutate_annotation : Linked.t -> Annotation.t -> int option
(** Mutation smoke-test helper: corrupt the first hammock CFM of the
    annotation to point at its function's entry block (unreachable from
    the branch's successors in any non-cyclic prologue), in place.
    Returns the branch address mutated, or [None] if the annotation has
    no hammock CFM. *)

val check_program :
  ?max_insts:int -> ?mutate:bool -> ?mutate_transform:bool ->
  ?gen:Generator.t -> Linked.t -> input:int array -> Diagnostic.t list
(** Capture a trace, profile it, select under every configuration in
    {!configs}, validate structure and annotations, run the full
    differential oracle (with the checkpoint cross-check of a DMP
    simulation under the first configuration's annotation), and validate the software-predication
    pipeline ({!Dmp_transform.Pipeline}) against the transform
    equivalence oracle. With [mutate], the first configuration's
    annotation is corrupted via {!mutate_annotation} first (the result
    must then contain errors). With [mutate_transform], the
    transformed program's selects get their operands swapped instead
    (exchanging the predicated arms) — the transform oracle must
    object. With [gen], the
    heuristic annotation's shapes are recorded for coverage
    guidance. *)

type outcome = { name : string; diagnostics : Diagnostic.t list }

val check_benchmark :
  ?max_insts:int -> ?mutate:bool -> ?mutate_transform:bool ->
  set:Input_gen.set -> Spec.t -> outcome

val check_random :
  ?max_insts:int -> n:int -> seed:int -> unit ->
  outcome list * Generator.t
(** Generate and check [n] random programs; diagnostics of program [i]
    are reported under the name ["random-i"]. Returns the generator so
    callers can render its coverage report. *)
