(** Checkpoint / restore of training state at pass boundaries.

    A checkpoint captures everything needed to resume a run and reach a
    final state bitwise-identical to the uninterrupted one: the app name
    and scale (to rebuild the instance deterministically), how many
    passes were completed out of how many, the interpreter RNG state at
    the pass boundary, and every model [Dist_array] serialized through
    the same partition codec the distributed runtime ships — Marshal
    round-trips float bits exactly.

    On disk a checkpoint is ["ORCK" magic, u32 version, u32 CRC of the
    payload, payload], written to a temp file and renamed into place, so
    a crash mid-save never leaves a valid-looking checkpoint.  Files are
    named [pass-<n>.orck]; {!latest} picks the highest pass. *)

val version : int

val extension : string
(** [".orck"] *)

exception Corrupt of { path : string; reason : string }

type snapshot = {
  ck_app : string;  (** app name, for {!Orion_apps} materialization *)
  ck_scale : float;
  ck_pass : int;  (** passes completed when this snapshot was taken *)
  ck_total_passes : int;
  ck_rng : int64;  (** interpreter RNG state at the boundary *)
  ck_arrays : (string * bytes) list;
      (** array name -> serialized {!Orion_dsm.Dist_array.partition} *)
}

(** Serialize [arrays] (the instance's model arrays) into a snapshot. *)
val snapshot :
  app:string ->
  scale:float ->
  pass:int ->
  total_passes:int ->
  rng:int64 ->
  (string * float Orion_dsm.Dist_array.t) list ->
  snapshot

(** [save ~dir s] writes [dir/pass-<n>.orck] atomically (creating
    [dir] if missing) and returns the path. *)
val save : dir:string -> snapshot -> string

(** Load and verify one checkpoint file.
    @raise Corrupt on bad magic, version, or CRC *)
val load : string -> snapshot

(** The highest-pass checkpoint in [dir], if any. *)
val latest : string -> (string * snapshot) option

(** [None] when the snapshot was taken from app [app] at scale [scale];
    otherwise why not, naming both sides.  A resume must refuse a
    mismatch: the arrays would not fit the instance. *)
val mismatch : snapshot -> app:string -> scale:float -> string option

(** Write the snapshot's array contents back into a freshly built
    instance's arrays (matched by name; arrays absent from the snapshot
    are left untouched).
    @raise Corrupt when a snapshot array has no target *)
val restore :
  snapshot -> (string * float Orion_dsm.Dist_array.t) list -> unit
