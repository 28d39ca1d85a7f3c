(* Checkpointed simulation prefixes — see prefix.mli.

   Correctness bar (pinned in test/test_checkpoint.ml): a suffix run
   from a thawed image renders bit-identically to the unbroken
   simulation that runs prefix and suffix in one piece. Thawing from
   the shared bytes is what isolates forks: each thaw is a fresh copy
   of the whole model graph, so two suffixes resumed from one image
   never see each other's state, even on different Pool worker
   domains. *)

module Engine = Lightvm_sim.Engine
module Snap = Lightvm_sim.Checkpoint

type shape = Plain | Partitioned of { jobs : int; partitions : int }

let lookahead = Lightvm_net.Switch.default_latency

type 'root origin =
  | Boot of (unit -> 'root)
  | Extend of 'root t * ('root -> 'root)

and 'root t = {
  key : string;
  describe : string;
  shape : shape;
  origin : 'root origin;
}

let boot ~key ~describe ?(shape = Plain) body =
  { key; describe; shape; origin = Boot body }

let extend ~key ~describe parent step =
  { key; describe; shape = parent.shape; origin = Extend (parent, step) }

let key p = p.key
let describe p = p.describe
let jobs p =
  match p.shape with Plain -> None | Partitioned { jobs; _ } -> Some jobs

(* Cache-internal failures (a prefix that cannot quiesce is a bug, not
   an expected outcome) surface as exceptions; [resume] and [save]
   return [result] instead. *)
let snap_err p = function
  | Ok v -> v
  | Error e -> failwith (p.key ^ ": " ^ Snap.error_to_string e)

(* The only thaw: the witness [p] fixes the type the bytes are read
   back at, the type [image p] froze them at. *)
let thaw (_ : 'root t) bytes : (Engine.saved * 'root, Snap.error) result =
  Snap.thaw bytes

(* [in_sim engine f] runs [f] as the initial process of [engine],
   stopping the engine when it returns: the engine's own result paired
   with [f]'s. *)
let in_sim engine f =
  let out = ref None in
  let r =
    engine (fun () ->
        out := Some (f ());
        Engine.stop ())
  in
  match !out with
  | Some v -> (r, v)
  | None -> failwith "prefix: simulation did not complete"

(* ------------------------------------------------------------------ *)
(* The image cache: keyed by prefix key and shared across Pool worker
   domains. The first toucher builds, concurrent touchers wait on the
   condition variable, later touchers get the frozen bytes for free. *)

type state = Building | Ready of string

let lock = Mutex.create ()
let cond = Condition.create ()
let table : (string, state) Hashtbl.t = Hashtbl.create 16

(* [build] runs outside the lock: a chained build (the 10k scale image
   extending the 5k one) re-enters for its parent key without
   deadlocking. *)
let cached key build =
  let rec get () =
    match Hashtbl.find_opt table key with
    | Some (Ready bytes) ->
        Mutex.unlock lock;
        bytes
    | Some Building ->
        Condition.wait cond lock;
        get ()
    | None -> (
        Hashtbl.replace table key Building;
        Mutex.unlock lock;
        match build () with
        | bytes ->
            Mutex.lock lock;
            Hashtbl.replace table key (Ready bytes);
            Condition.broadcast cond;
            Mutex.unlock lock;
            bytes
        | exception e ->
            Mutex.lock lock;
            Hashtbl.remove table key;
            Condition.broadcast cond;
            Mutex.unlock lock;
            raise e)
  in
  Mutex.lock lock;
  get ()

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock

(* The image payload is [(Engine.saved, root)]: one marshalled value,
   so the heap thunks and the model they close over stay shared on
   thaw. *)
let rec image p =
  cached p.key (fun () ->
      let (_clock, saved), root =
        match (p.origin, p.shape) with
        | Boot body, Plain -> in_sim Engine.run_capture body
        | Boot body, Partitioned { jobs; partitions } ->
            in_sim
              (Engine.run_partitioned_capture ~jobs ~lookahead ~partitions)
              body
        | Extend (parent, step), _ ->
            let saved, r = snap_err parent (thaw parent (image parent)) in
            in_sim (Engine.resume_capture ?jobs:(jobs p) saved) (fun () ->
                step r)
      in
      snap_err p (Snap.freeze (saved, root)))

(* The suffix on a thawed root, resumed at the captured clock. *)
let continue p saved root suffix =
  snd (in_sim (Engine.resume ?jobs:(jobs p) saved) (fun () -> suffix root))

(* The unbroken reference: boot, every extension and the suffix as one
   simulation. *)
let unbroken p suffix =
  let rec root p =
    match p.origin with
    | Boot body -> body ()
    | Extend (parent, step) -> step (root parent)
  in
  let engine =
    match p.shape with
    | Plain -> Engine.run ?until:None
    | Partitioned { jobs; partitions } ->
        Engine.run_partitioned ~jobs ~lookahead ~partitions ?adaptive:None
  in
  snd (in_sim engine (fun () -> suffix (root p)))

let run ~snapshot p suffix =
  if not snapshot then (0., unbroken p suffix)
  else begin
    let t0 = Unix.gettimeofday () in
    let saved, root = snap_err p (thaw p (image p)) in
    let prefix_seconds = Unix.gettimeofday () -. t0 in
    (prefix_seconds, continue p saved root suffix)
  end

let resume p bytes suffix =
  match thaw p bytes with
  | Error e -> Error (Snap.error_to_string e)
  | Ok (saved, root) -> Ok (continue p saved root suffix)

let save p ~path =
  match image p with
  | exception Failure msg -> Error msg
  | bytes ->
      Result.map_error Snap.error_to_string
        (Snap.save_bytes ~path ~config:p.key bytes)
