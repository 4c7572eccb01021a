(** Pluggable communication policies for the distributed runtime, and
    the dirty-element stamps they filter and encode.

    Every worker stamps each element of a managed DistArray with its
    last writer's version ([pass * blocks + natural-order position])
    and with the local sequence number at which the worker learned its
    current value ([seen]).  A payload for peer [q] offers every element
    with [seen] past [q]'s cursor — own writes and relayed ones alike —
    except those whose last writer [q] owns, as (linearized key, value,
    version) triples; receivers apply them last-writer-wins by version.
    How the offered triples are filtered and encoded is a policy
    {e value}, selected at runtime ([--comms]) and
    carried to every worker in the {!Wire.plan}:

    - [full] — ship every offered triple raw: the byte-accounting
      baseline (24 bytes a triple).
    - [delta] — the same triples through the packed codec below.
      Bitwise-equal to [full].
    - [topk:K] — [delta], then keep only the [K] elements with the
      largest change since this peer last got them; the rest become
      per-peer residuals offered again with the next payload (the
      Bösen-style managed-communication rule, promoted from the
      [lib/baselines] simulation to the real socket runtime).
    - [budget:BYTES] — [topk] under a per-worker per-pass byte budget
      instead of a fixed count.
    - [auto] (default) — [delta] semantics with the per-array key
      encoding chosen from observed {!Orion_dsm.Dist_array.stats}
      density (sparse index/value for low-density arrays, run-length
      keys for dense ones), refreshed once per pass.

    Every policy flushes {e all} residuals in the {!Wire.Pass_sync}
    barrier, so pass boundaries are globally consistent and lossy
    policies trade only mid-pass staleness for bandwidth.

    The packed codec is sparse index/value: per array, ascending
    linearized keys as varint deltas (or run-length ranges for dense
    arrays), IEEE float bits raw or run-length encoded, whichever is
    smaller, and varint versions.  Decoding is exact (float bits are
    preserved). *)

module Dist_array = Orion_dsm.Dist_array

(** A parsed [--comms] spec. *)
type spec = Auto | Full | Delta | Topk of int | Budget of float

val spec_to_string : spec -> string

(** Parse ["auto" | "full" | "delta" | "topk:K" | "budget:BYTES"].
    [Error] carries a usage message naming the bad input. *)
val spec_of_string : string -> (spec, string) result

(** [spec_of_string] or [invalid_arg]. *)
val spec_of_string_exn : string -> spec

(** {1 Worker side: dirty-element stamps} *)

(** One worker's stamps over its managed DistArrays, its per-peer
    cursors, and the lossy policies' per-peer residuals. *)
type stamps

(** [stamps spec ~rank ~peers ~owners arrays]: [peers] counts every
    rank (this one included); [owners.(pos)] is the rank owning the
    block at natural-order position [pos] of a pass. *)
val stamps :
  spec ->
  rank:int ->
  peers:int ->
  owners:int array ->
  float Dist_array.t list ->
  stamps

(** Stamping externs ({!Dist_array.to_stamped_extern}) for every array,
    by name, to bind in the environment the kernel is compiled in. *)
val externs : stamps -> (string * Orion_lang.Value.extern) list

(** Writes from now on carry the version of block [pos] of [pass]. *)
val begin_block : stamps -> pass:int -> pos:int -> unit

(** Refresh the per-array key encodings from array density (once per
    pass, not per payload) and reset the pass byte budget. *)
val note_pass : stamps -> unit

(** The per-array encode decision labels, sorted by array name. *)
val decisions : stamps -> (string * string) list

(** The payload for [peer]: every element learned since the last
    payload for it, minus those whose last writer [peer] owns, filtered
    and encoded under the policy.  Advances [peer]'s cursor.  Returns
    per-array (bytes as encoded, raw [full]-policy bytes).  [sync]
    marks the pass-barrier flush: ranking and budgets are bypassed and
    all residuals held for [peer] are folded in. *)
val prepare :
  stamps ->
  peer:int ->
  sync:bool ->
  Wire.payload * (string * float * float) list

(** The triples a payload carries (exact float bits). *)
val decode : Wire.payload -> Wire.triples list

(** Apply a peer's payload last-writer-wins; newly learned elements are
    stamped [seen] for relay to other peers. *)
val apply : stamps -> Wire.payload -> unit

(** At a pass barrier, once every peer's sync has been applied: all
    ranks hold the same state, so every cursor moves to now and the
    dirty lists empty (the syncs already flushed every residual). *)
val settle : stamps -> unit

(** Current values of the elements whose last writer this rank owns —
    written in [pass] only, or ever when [pass] is omitted — one
    partition per array that has any. *)
val owned_parts : ?pass:int -> stamps -> Wire.part list

(** {1 Partitions: ships, prefetches, pass reports, the final gather} *)

(** Encode partitions for the wire under [spec]: [full] ships raw
    [Marshal] partitions; every other policy uses the packed codec
    with the key mode chosen per partition from its observed density. *)
val encode_parts : spec -> Wire.part list -> Wire.part_payload list

(** {!encode_parts} plus per-array (actual bytes, [full]-policy bytes),
    which costs a [Marshal] of every partition. *)
val prepare_parts :
  spec ->
  Wire.part list ->
  Wire.part_payload list * (string * float * float) list

val decode_parts : Wire.part_payload list -> Wire.part list

(** Bytes of one encoded partition as it travels. *)
val payload_bytes : Wire.part_payload -> float

(** Exact packed-partition round trip building blocks (exposed for the
    QCheck codec properties). *)
val encode_part : mode:[ `Sparse | `Dense ] -> Wire.part -> bytes

val decode_part : bytes -> Wire.part
