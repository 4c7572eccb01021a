(** Iteration-space partitioning into schedulable blocks (paper §4.3,
    Fig. 7): histogram-balanced range partitions along the plan's
    dimensions; unimodular plans partition the transformed coordinates
    with exact per-wavefront time partitions. *)

type 'v block = {
  space_idx : int;
  time_idx : int;  (** -1 for 1D blocks *)
  entries : (int array * 'v) array;
}

type 'v t = {
  space_parts : int;
  time_parts : int;  (** 1 for 1D *)
  blocks : 'v block array array;  (** indexed [space][time] *)
  space_boundaries : Orion_dsm.Partitioner.boundaries;
  time_boundaries : Orion_dsm.Partitioner.boundaries option;
}

val block : 'v t -> space:int -> time:int -> 'v block

(** Deterministic Fisher–Yates (SGD sample-order shuffling). *)
val shuffle_in_place : seed:int -> 'a array -> unit

(** Reshuffle every block's entries (per-epoch local shuffling). *)
val reshuffle : 'v t -> seed:int -> unit

val total_entries : 'v t -> int

(** Structural fingerprint (partition counts + every block's entry keys
    in scheduled order).  The distributed runtime compares the master's
    and each worker's independently compiled schedules before
    executing. *)
val fingerprint : 'v t -> int

(** The hash {!fingerprint} folds with, for other digests of a run's
    data: start from [hash_init] and fold one word at a time with
    [hash_mix state word].  Order-sensitive. *)
val hash_init : int

val hash_mix : int -> int -> int

val partition_1d :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  space_dim:int ->
  space_parts:int ->
  'v t

val partition_2d :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  space_dim:int ->
  time_dim:int ->
  space_parts:int ->
  time_parts:int ->
  'v t

(** 1D partitioning with caller-supplied space boundaries (adaptive
    re-planning).  Pass the same [shuffle_seed] the original compile
    used so fingerprints of independently rebuilt schedules agree. *)
val partition_1d_with :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  space_dim:int ->
  space_boundaries:Orion_dsm.Partitioner.boundaries ->
  'v t

(** 2D partitioning with caller-supplied space boundaries; time
    boundaries stay histogram-balanced over [time_parts]. *)
val partition_2d_with :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  space_dim:int ->
  time_dim:int ->
  space_boundaries:Orion_dsm.Partitioner.boundaries ->
  time_parts:int ->
  'v t

(** Partition the transformed iteration space: time = transformed dim
    0 with one partition per distinct value (dependences may connect
    consecutive values across space partitions), space = transformed
    dim 1.  [time_parts] is ignored. *)
val partition_unimodular :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  matrix:Orion_analysis.Unimodular.matrix ->
  space_parts:int ->
  time_parts:int ->
  'v t
