(* In-memory spans recorded by the harness around each call it makes
   into the Orion libraries: name, start, end and the enclosing span.
   Only the traced run records them; every run times its calls the same
   way, so timed and traced runs measure identical code paths. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;  (** seconds since the recorder was created *)
  finish : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable open_ : int list;  (** ids of the spans currently open *)
  mutable next : int;
}

let create ~enabled =
  { enabled; origin = Orion.Clock.now (); spans = []; open_ = []; next = 0 }

(** Run [f], returning its result and its wall seconds; while tracing,
    also record a span [name] nested in the innermost open span.  An
    exception still closes the span. *)
let timed t name f =
  let id = t.next in
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  if t.enabled then begin
    t.next <- id + 1;
    t.open_ <- id :: t.open_
  end;
  let t0 = Orion.Clock.now () in
  let close () =
    let t1 = Orion.Clock.now () in
    if t.enabled then begin
      t.open_ <- List.tl t.open_;
      t.spans <-
        { id; parent; name; start = t0 -. t.origin; finish = t1 -. t.origin }
        :: t.spans
    end;
    t1 -. t0
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

(** Durations of every recorded span called [name], oldest first. *)
let durations t name =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name then Some (s.finish -. s.start) else None)
       t.spans)

let to_json t : Orion.Report.json =
  let open Orion.Report in
  List
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", match s.parent with Some p -> Int p | None -> Null);
             ("name", Str s.name);
             ("start_s", Float s.start);
             ("end_s", Float s.finish);
           ])
       t.spans)
