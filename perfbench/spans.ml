(* The benchmark's own host-time spans around its calls into each
   layer. Spans live in growable in-memory arrays and are written out
   once, when the run ends; a disabled recorder costs one branch per
   call and allocates nothing. Parents are passed explicitly because
   simulation processes interleave: a stack would mis-nest the spans of
   two hosts' processes running in the same window. *)

type t = {
  mutable on : bool;
  mutable n : int;
  mutable names : string array;
  mutable ops : int array;
  mutable parents : int array;
  mutable starts : float array;
  mutable ends : float array;
}

let now = Unix.gettimeofday

let create () =
  let cap = 1024 in
  {
    on = false;
    n = 0;
    names = Array.make cap "";
    ops = Array.make cap 0;
    parents = Array.make cap 0;
    starts = Array.make cap 0.;
    ends = Array.make cap 0.;
  }

let clear t = t.n <- 0

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.ops <- extend t.ops 0;
  t.parents <- extend t.parents 0;
  t.starts <- extend t.starts 0.;
  t.ends <- extend t.ends 0.

(* [enter t name] opens a span and returns its id; [-1] when off. *)
let enter t ?(parent = -1) ?(op = -1) name =
  if not t.on then -1
  else begin
    if t.n = Array.length t.names then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.ops.(id) <- op;
    t.parents.(id) <- parent;
    t.ends.(id) <- nan;
    t.starts.(id) <- now ();
    id
  end

let leave t id = if id >= 0 then t.ends.(id) <- now ()

(* Record an already-closed span measured elsewhere. *)
let add t ?parent ?op name start stop =
  let id = enter t ?parent ?op name in
  if id >= 0 then begin
    t.starts.(id) <- start;
    t.ends.(id) <- stop
  end

(* Host seconds of every closed span called [name], in opening order. *)
let durations t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.names.(i) = name && not (Float.is_nan t.ends.(i)) then
      acc := (t.ends.(i) -. t.starts.(i)) :: !acc
  done;
  Array.of_list !acc

let count t = t.n

(* One JSON object per line: id, name, parent, op, start and end in
   microseconds since the first span. *)
let write t path =
  let origin = if t.n = 0 then 0. else t.starts.(0) in
  let us x = (x -. origin) *. 1e6 in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
          i t.names.(i) t.parents.(i) t.ops.(i) (us t.starts.(i))
          (us t.ends.(i))
      done)
