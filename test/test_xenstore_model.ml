(* Model-based property test: random operation sequences against a
   reference model (a flat path->value map with explicit parent
   tracking), checking that the real tree store agrees on every
   observable. *)

module Xs_path = Lightvm_xenstore.Xs_path
module Xs_store = Lightvm_xenstore.Xs_store
module Xs_error = Lightvm_xenstore.Xs_error

module SMap = Map.Make (String)

(* The reference model: a set of existing paths with values. All ops run
   as Dom0, so permissions do not constrain the model. *)
module Model = struct
  type t = string SMap.t (* path -> value; "" for directories *)

  let initial : t =
    SMap.of_seq
      (List.to_seq
         [ ("/local", ""); ("/local/domain", ""); ("/tool", "");
           ("/vm", "") ])

  let parents path =
    (* "/a/b/c" -> ["/a"; "/a/b"] *)
    let segs = String.split_on_char '/' path in
    let segs = List.filter (fun s -> s <> "") segs in
    let rec go acc prefix = function
      | [] | [ _ ] -> List.rev acc
      | seg :: rest ->
          let p = prefix ^ "/" ^ seg in
          go (p :: acc) p rest
    in
    go [] "" segs

  let write model path value =
    let model =
      List.fold_left
        (fun m parent ->
          if SMap.mem parent m then m else SMap.add parent "" m)
        model (parents path)
    in
    SMap.add path value model

  let mkdir model path =
    if SMap.mem path model then model else write model path ""

  let rm model path =
    if not (SMap.mem path model) then None
    else
      Some
        (SMap.filter
           (fun p _ -> not (p = path || String.length p > String.length path
                            && String.sub p 0 (String.length path + 1)
                               = path ^ "/"))
           model)

  let read model path = SMap.find_opt path model

  let children model path =
    let prefix = if path = "/" then "/" else path ^ "/" in
    SMap.fold
      (fun p _ acc ->
        if String.length p > String.length prefix
           && String.sub p 0 (String.length prefix) = prefix
           && not (String.contains_from p (String.length prefix) '/')
        then
          String.sub p (String.length prefix)
            (String.length p - String.length prefix)
          :: acc
        else acc)
      model []
    |> List.sort compare

  let count model = SMap.cardinal model + 1 (* + root *)
end

type op =
  | Op_write of string * string
  | Op_mkdir of string
  | Op_rm of string
  | Op_read of string
  | Op_dir of string

let op_gen =
  let open QCheck.Gen in
  let seg = oneofl [ "a"; "b"; "c"; "d" ] in
  let path =
    map
      (fun segs -> "/" ^ String.concat "/" segs)
      (list_size (int_range 1 4) seg)
  in
  let value = oneofl [ "x"; "y"; "longer-value"; "" ] in
  frequency
    [
      (4, map2 (fun p v -> Op_write (p, v)) path value);
      (2, map (fun p -> Op_mkdir p) path);
      (2, map (fun p -> Op_rm p) path);
      (3, map (fun p -> Op_read p) path);
      (2, map (fun p -> Op_dir p) path);
    ]

let apply_both (store, model) op =
  let p s = Xs_path.of_string s in
  match op with
  | Op_write (path, value) -> (
      match Xs_store.write store ~caller:0 (p path) value with
      | Ok () -> Ok (Model.write model path value)
      | Error e -> Error (e, "write " ^ path))
  | Op_mkdir path -> (
      match Xs_store.mkdir store ~caller:0 (p path) with
      | Ok () -> Ok (Model.mkdir model path)
      | Error e -> Error (e, "mkdir " ^ path))
  | Op_rm path -> (
      let real = Xs_store.rm store ~caller:0 (p path) in
      match (real, Model.rm model path) with
      | Ok (), Some model' -> Ok model'
      | Error Xs_error.ENOENT, None -> Ok model
      | Ok (), None -> Error (Xs_error.EINVAL, "rm diverged (real ok)")
      | Error e, Some _ -> Error (e, "rm diverged (model ok) " ^ path)
      | Error _, None -> Ok model)
  | Op_read path -> (
      let real =
        match Xs_store.read store ~caller:0 (p path) with
        | Ok v -> Some v
        | Error _ -> None
      in
      if real = Model.read model path then Ok model
      else Error (Xs_error.EINVAL, "read diverged at " ^ path))
  | Op_dir path -> (
      let real =
        match Xs_store.directory store ~caller:0 (p path) with
        | Ok entries -> Some entries
        | Error _ -> None
      in
      let expected =
        if path <> "/" && Model.read model path = None then None
        else Some (Model.children model path)
      in
      if real = expected then Ok model
      else Error (Xs_error.EINVAL, "directory diverged at " ^ path))

(* How far a successful [op] on [model] must advance
   [Xs_store.generation]: every write counts, a same-value one included
   (the value alphabet repeats, so those occur), as does every rm and
   every mkdir that creates; reads, listings, a mkdir of an existing
   node and a failed op leave it alone. *)
let generation_bump model = function
  | Op_write _ -> 1
  | Op_mkdir path -> if SMap.mem path model then 0 else 1
  | Op_rm path -> if SMap.mem path model then 1 else 0
  | Op_read _ | Op_dir _ -> 0

let describe = function
  | Op_write (path, value) -> Printf.sprintf "write %s %S" path value
  | Op_mkdir path -> "mkdir " ^ path
  | Op_rm path -> "rm " ^ path
  | Op_read path -> "read " ^ path
  | Op_dir path -> "dir " ^ path

let prop_store_matches_model =
  QCheck.Test.make ~name:"store agrees with a reference model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops ->
      let store = Xs_store.create () in
      let rec go model = function
        | [] ->
            (* Final structural check: node counts agree. *)
            Model.count model = Xs_store.node_count store
        | op :: rest -> (
            let before = Xs_store.generation store in
            match apply_both (store, model) op with
            | Ok model' ->
                let bump = Xs_store.generation store - before
                and expected = generation_bump model op in
                if bump = expected then go model' rest
                else
                  QCheck.Test.fail_reportf "generation +%d after %s, expected +%d"
                    bump (describe op) expected
            | Error (_, msg) -> QCheck.Test.fail_report msg)
      in
      go Model.initial ops)

(* ------------------------------------------------------------------ *)
(* Watch-registry model: the indexed (trie + per-owner) registry must
   agree with the obvious linear reference — a registration-order list
   filtered with is_prefix — on every observable, for random add /
   remove / remove_owner sequences probed at random modified paths. *)

module Xs_watch = Lightvm_xenstore.Xs_watch

module Watch_model = struct
  (* (owner, path, token) in registration order. *)
  type t = (int * Xs_path.t * string) list

  let add model ~owner ~path ~token = model @ [ (owner, path, token) ]

  let remove model ~owner ~path ~token =
    let keep (o, p, tk) =
      not (o = owner && Xs_path.equal p path && tk = token)
    in
    let model' = List.filter keep model in
    (model', List.length model' <> List.length model)

  let remove_owner model ~owner =
    let model' = List.filter (fun (o, _, _) -> o <> owner) model in
    (model', List.length model - List.length model')

  let count model = List.length model

  let count_for model ~owner =
    List.length (List.filter (fun (o, _, _) -> o = owner) model)

  let matching model ~modified =
    List.filter_map
      (fun (_, p, tk) ->
        let hit =
          if Xs_path.is_special p || Xs_path.is_special modified then
            Xs_path.equal p modified
          else Xs_path.is_prefix p ~of_:modified
        in
        if hit then Some (Xs_path.to_string p, tk) else None)
      model
end

type watch_op =
  | W_add of int * string * string
  | W_remove of int * string * string
  | W_remove_owner of int

let watch_path_gen =
  let open QCheck.Gen in
  let seg = oneofl [ "a"; "b"; "c" ] in
  frequency
    [
      ( 6,
        map
          (fun segs -> "/" ^ String.concat "/" segs)
          (list_size (int_range 1 4) seg) );
      (1, return "/");
      (1, oneofl [ "@introduceDomain"; "@releaseDomain" ]);
    ]

let watch_op_gen =
  let open QCheck.Gen in
  let owner = int_range 0 3 in
  let token = oneofl [ "t0"; "t1"; "t2" ] in
  frequency
    [
      (5, map3 (fun o p tk -> W_add (o, p, tk)) owner watch_path_gen token);
      (2, map3 (fun o p tk -> W_remove (o, p, tk)) owner watch_path_gen token);
      (1, map (fun o -> W_remove_owner o) owner);
    ]

let prop_watch_matches_model =
  QCheck.Test.make
    ~name:"indexed watch registry agrees with the linear reference"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 40) watch_op_gen)
           (list_size (int_range 1 8) watch_path_gen)))
    (fun (ops, probes) ->
      let t = Xs_watch.create () in
      let model =
        List.fold_left
          (fun model op ->
            match op with
            | W_add (owner, path, token) ->
                let path = Xs_path.of_string path in
                Xs_watch.add t ~owner ~path ~token ~deliver:(fun _ -> ());
                Watch_model.add model ~owner ~path ~token
            | W_remove (owner, path, token) ->
                let path = Xs_path.of_string path in
                let removed = Xs_watch.remove t ~owner ~path ~token in
                let model', removed' =
                  Watch_model.remove model ~owner ~path ~token
                in
                if removed <> removed' then
                  QCheck.Test.fail_report
                    (Printf.sprintf "remove %d %s diverged" owner
                       (Xs_path.to_string path));
                (* The per-owner index drops single watches too. *)
                for o = 0 to 3 do
                  if
                    Xs_watch.count_for t ~owner:o
                    <> Watch_model.count_for model' ~owner:o
                  then
                    QCheck.Test.fail_report
                      (Printf.sprintf "count_for %d diverged after remove" o)
                done;
                model'
            | W_remove_owner owner ->
                let n = Xs_watch.remove_owner t ~owner in
                let model', n' = Watch_model.remove_owner model ~owner in
                if n <> n' then
                  QCheck.Test.fail_report
                    (Printf.sprintf "remove_owner %d: %d <> %d" owner n n');
                model')
          [] ops
      in
      if Xs_watch.count t <> Watch_model.count model then
        QCheck.Test.fail_report "count diverged";
      for owner = 0 to 3 do
        if
          Xs_watch.count_for t ~owner <> Watch_model.count_for model ~owner
        then
          QCheck.Test.fail_report
            (Printf.sprintf "count_for %d diverged" owner)
      done;
      (* Probe both the random paths and the specials: matching must
         agree in content *and* registration order. *)
      List.iter
        (fun probe ->
          let modified = Xs_path.of_string probe in
          let real =
            List.map
              (fun (p, tk, _) -> (Xs_path.to_string p, tk))
              (Xs_watch.matching t ~modified)
          in
          let expected = Watch_model.matching model ~modified in
          if real <> expected then
            QCheck.Test.fail_report
              (Printf.sprintf "matching %s diverged: [%s] <> [%s]" probe
                 (String.concat "; "
                    (List.map (fun (p, tk) -> p ^ ":" ^ tk) real))
                 (String.concat "; "
                    (List.map (fun (p, tk) -> p ^ ":" ^ tk) expected))))
        (probes @ [ "@introduceDomain"; "@releaseDomain"; "/" ]);
      true)

let suites =
  [
    ( "xenstore.model",
      [
        QCheck_alcotest.to_alcotest prop_store_matches_model;
        QCheck_alcotest.to_alcotest prop_watch_matches_model;
      ] );
  ]
