(** Abstract syntax for OrionScript, the small Julia-flavoured imperative
    language that Orion programs are written in.

    A serial training program is a sequence of statements.  The statement
    of interest to the parallelizer is a [For] whose [parallel] field is
    set (the surface syntax is [@parallel_for for (key, v) in arr ... end]);
    its body is what the static dependence analysis inspects. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Pow
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
[@@deriving show { with_path = false }, eq]

type unop = Neg | Not [@@deriving show { with_path = false }, eq]

type expr =
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | String_lit of string
  | Var of string
  | Index of expr * subscript list  (** [e\[s1, ..., sn\]] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Tuple of expr list

and subscript =
  | Sub_expr of expr  (** a point subscript *)
  | Sub_range of expr * expr  (** [lo:hi], inclusive *)
  | Sub_all  (** [:] — the whole dimension *)
[@@deriving show { with_path = false }, eq]

type lvalue =
  | Lvar of string
  | Lindex of string * subscript list
      (** only direct indexing of a named array can be assigned to *)
[@@deriving show { with_path = false }, eq]

(** The two loop forms: [for i = lo:hi] and [for (key, v) in arr]. *)
type loop_kind =
  | Range_loop of { var : string; lo : expr; hi : expr }
  | Each_loop of { key : string; value : string; arr : string }
[@@deriving show { with_path = false }, eq]

type parallel_spec = { ordered : bool }
[@@deriving show { with_path = false }, eq]

(** Source position of a statement (1-based; [dummy_pos] for synthesized
    code).  Positions are metadata: AST equality ignores them, so a
    pretty-printed program re-parses to an [equal] AST. *)
type pos = { line : int; col : int } [@@deriving show { with_path = false }]

let equal_pos (_ : pos) (_ : pos) = true
let dummy_pos = { line = 0; col = 0 }

type stmt = { sk : stmt_kind; spos : pos }

and stmt_kind =
  | Assign of lvalue * expr
  | Op_assign of binop * lvalue * expr  (** [+=], [-=], [*=], [/=] *)
  | If of expr * block * block
  | For of { kind : loop_kind; body : block; parallel : parallel_spec option }
  | While of expr * block
  | Expr_stmt of expr
  | Break
  | Continue

and block = stmt list [@@deriving show { with_path = false }, eq]

(** Wrap a statement kind with a source position (synthesized code omits
    [?pos] and gets [dummy_pos]). *)
let mk ?(pos = dummy_pos) sk = { sk; spos = pos }

type program = block [@@deriving show { with_path = false }, eq]

(** [fold_expr f acc e] folds [f] over [e] and all its sub-expressions,
    including expressions nested inside subscripts. *)
let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int_lit _ | Float_lit _ | Bool_lit _ | String_lit _ | Var _ -> acc
  | Index (base, subs) ->
      let acc = fold_expr f acc base in
      List.fold_left (fold_subscript f) acc subs
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Unop (_, a) -> fold_expr f acc a
  | Call (_, args) -> List.fold_left (fold_expr f) acc args
  | Tuple es -> List.fold_left (fold_expr f) acc es

and fold_subscript f acc = function
  | Sub_expr e -> fold_expr f acc e
  | Sub_range (lo, hi) -> fold_expr f (fold_expr f acc lo) hi
  | Sub_all -> acc

(** Free variables read by an expression (variable occurrences, including
    array bases and subscript expressions). *)
let expr_vars e =
  fold_expr
    (fun acc e -> match e with Var v -> v :: acc | _ -> acc)
    [] e
  |> List.sort_uniq String.compare

(** [fold_stmts f acc block] folds [f] over every statement in [block],
    recursing into nested blocks. *)
let rec fold_stmts f acc block = List.fold_left (fold_stmt f) acc block

and fold_stmt f acc stmt =
  let acc = f acc stmt in
  match stmt.sk with
  | Assign _ | Op_assign _ | Expr_stmt _ | Break | Continue -> acc
  | If (_, then_b, else_b) -> fold_stmts f (fold_stmts f acc then_b) else_b
  | For { body; _ } -> fold_stmts f acc body
  | While (_, body) -> fold_stmts f acc body

(** Names a block rebinds anywhere: [x = e], [x op= e] and loop
    variables.  An indexed write [A\[...\] = e] does not rebind [A]. *)
let rebound_names block =
  fold_stmts
    (fun acc stmt ->
      match stmt.sk with
      | Assign (Lvar v, _) | Op_assign (_, Lvar v, _) -> v :: acc
      | For { kind = Range_loop { var; _ }; _ } -> var :: acc
      | For { kind = Each_loop { key; value; _ }; _ } -> key :: value :: acc
      | Assign (Lindex _, _) | Op_assign (_, Lindex _, _) | If _ | While _
      | Expr_stmt _ | Break | Continue ->
          acc)
    [] block
  |> List.sort_uniq String.compare

(** Names assigned anywhere in a block: the rebound ones and the bases
    of indexed writes. *)
let assigned_names block =
  fold_stmts
    (fun acc stmt ->
      match stmt.sk with
      | Assign (Lindex (v, _), _) | Op_assign (_, Lindex (v, _), _) -> v :: acc
      | _ -> acc)
    (rebound_names block) block
  |> List.sort_uniq String.compare
