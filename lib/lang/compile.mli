(** One-time loop-body compiler for [@parallel_for] bodies.

    [compile_body] lowers a body block to a closure kernel: variables
    resolve to mutable slots instead of per-access hashtable lookups,
    point and single-range slice subscripts on DistArrays the body does
    not rebind resolve to the host's unboxed {!Value.fast_access}
    accessors when available, scalar floats run
    unboxed, and builtins devirtualize to direct OCaml closures.  The
    kernel is observationally identical to
    {!Interp.eval_body_for} — same values bitwise, same exceptions with
    the same positioned messages, same RNG consumption, same profile /
    access-hook callbacks in the same order — which the differential
    tests in [test_lang] check property-style.

    Compilation is conservative: any construct whose semantics the
    compiler cannot reproduce exactly (a nested [@parallel_for], a free
    variable missing from the environment) yields [None] and the caller
    falls back to the tree-walking interpreter. *)

type t

(** Compile [body] against [env]'s current bindings.  Globals (free
    variables already bound in [env], e.g. DistArray handles and
    hyper-parameters) are captured by reference at compile time; locals
    (the names the body rebinds, not the bases of indexed writes) become
    slots private to the kernel.  [value_float] asserts every
    iterated value passed to {!run} will be [Vfloat] (enables the
    unboxed value slot).  Returns [None] when the body uses an
    unsupported construct. *)
val compile_body :
  Interp.env ->
  ?value_float:bool ->
  key_var:string ->
  value_var:string ->
  Ast.block ->
  t option

(** Run the kernel for one iteration — the compiled equivalent of
    {!Interp.eval_body_for}. *)
val run : t -> key:int array -> value:Value.t -> unit

(** Write the kernel's local slots back into the environment's
    variable table, so post-loop code observing leaked loop locals
    (as the interpreter leaks them) sees identical bindings. *)
val flush_locals : t -> unit

(** [false] iff the [ORION_NO_COMPILE] escape hatch is set (to anything
    but [""] or ["0"]). *)
val enabled : unit -> bool
