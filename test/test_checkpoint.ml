(* Checkpoint/restore and experiment prefix caching: a suffix run from
   a thawed image must render bit-identically to the unbroken
   simulation, across the jobs x partition matrix and under injected
   faults; one image must support any number of independent forks; and
   the on-disk format must refuse foreign or stale files with a
   structured error instead of deserializing garbage. *)

module E = Lightvm.Experiment
module Prefix = Lightvm.Prefix
module Engine = Lightvm_sim.Engine
module Checkpoint = Lightvm_sim.Checkpoint
module Fault = Lightvm_sim.Fault
module Series = Lightvm_metrics.Series
module Table = Lightvm_metrics.Table
module Vmm = Lightvm_cluster.Vmm
module Mode = Lightvm_toolstack.Mode
module Image = Lightvm_guest.Image

(* Exact (hex) floats, as in test_partition.ml: any numeric divergence
   must show in the digest. [p_prefix_seconds] is wall-clock time and
   deliberately NOT rendered — the digest is a pure function of the
   simulated output. *)
let add_labelled buf (l : E.labelled) =
  Buffer.add_string buf ("# " ^ l.E.label ^ "\n");
  List.iter
    (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%h\t%h\n" x y))
    (Series.points l.E.series)

let digest_rows rows =
  let buf = Buffer.create 4096 in
  List.iter (add_labelled buf) rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest_piece (p : E.piece) =
  let buf = Buffer.create 4096 in
  List.iter (add_labelled buf) p.E.p_series;
  List.iter
    (fun t -> Buffer.add_string buf (Format.asprintf "%a@." Table.pp t))
    p.E.p_tables;
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) p.E.p_notes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let parse_spec s =
  match Fault.parse_spec s with Ok s -> s | Error e -> failwith e

(* Run a catalogue key's prefix and resume suffix, forked from the
   cached image or as one unbroken simulation. *)
let run_fork ?n ?spec ?fault_seed ~snapshot key =
  match E.fork ?n ?spec ?fault_seed key with
  | Error msg -> Alcotest.fail msg
  | Ok (E.Fork { prefix; suffix }) -> snd (Prefix.run ~snapshot prefix suffix)

(* ------------------------------------------------------------------ *)
(* The catalogue: every prefix the plans use at a small scale, in both
   partition modes, plus the inputs of the original per-family equality
   tests — the scale curves (chaos [XS] forked at 300 and grown to 700,
   xl at 200, chaos [NoXS] at 400), the reliability cells (60 attempts
   at fault multiplier 1 or 2, two seeds sharing one chaos [XS] image)
   and the warm-pool serverless cell (200 requests, fault seed 7). Each row's
   fork must render exactly as its unbroken twin. Rows run in order
   without a cache reset, so later rows of a key fork the image an
   earlier row built: forks share no mutable state. *)

let catalogue_rows =
  let rel_spec mult =
    Some (Fault.scale (parse_spec E.reliability_default_spec) mult)
  in
  let listed =
    List.sort_uniq compare
      (List.concat_map
         (fun partition -> List.map fst (E.prefixes ~n:40 ~partition ()))
         [ `Host; `None ])
  in
  List.map (fun key -> (key, Some 40, None, None)) listed
  @ [
      ("scale:chaos-xs@300", Some 400, None, None);
      ("scale:xl@200", Some 0, None, None);
      ("scale:chaos-noxs@400", Some 0, None, None);
      ("reliability:xl", Some 60, rel_spec 1., Some 42L);
      ("reliability:chaos-xs", Some 60, rel_spec 2., Some 42L);
      ("reliability:chaos-xs", Some 60, rel_spec 2., Some 7L);
      ("reliability:chaos-noxs", Some 60, rel_spec 1., Some 42L);
      ("serverless:warm@4", Some 200, None, Some 7L);
    ]

let family key = List.hd (String.split_on_char ':' key)

let test_family_snapshot_equal name () =
  Prefix.reset ();
  List.iter
    (fun (key, n, spec, fault_seed) ->
      if String.equal (family key) name then
        Alcotest.(check string)
          (Printf.sprintf "%s n=%s fork = unbroken" key
             (Option.fold ~none:"-" ~some:string_of_int n))
          (digest_piece (run_fork ?n ?spec ?fault_seed ~snapshot:false key))
          (digest_piece (run_fork ?n ?spec ?fault_seed ~snapshot:true key)))
    catalogue_rows

let catalogue_cases =
  List.map
    (fun name ->
      Alcotest.test_case
        (name ^ ": snapshot = unbroken")
        `Slow
        (test_family_snapshot_equal name))
    (List.sort_uniq compare
       (List.map (fun (key, _, _, _) -> family key) catalogue_rows))

(* ------------------------------------------------------------------ *)
(* Extension chains: a host booted to 300 guests, extended to 700 from
   its thawed image (the shape of the scale family's 2000 -> 5000 ->
   10,000 chain), must render every link exactly as one unbroken
   simulation does. *)

let test_extend_chain () =
  Prefix.reset ();
  let grow (host, lat_prev) ~upto =
    let lat = Array.make upto nan in
    Array.blit lat_prev 0 lat 0 (Array.length lat_prev);
    for i = Array.length lat_prev to upto - 1 do
      let t0 = Engine.now () in
      (match Vmm.vm_create host (Vmm.vm_request Image.daytime) with
      | Ok vi -> ignore (Vmm.vm_boot host ~domid:vi.Vmm.vi_domid)
      | Error e -> failwith (Vmm.error_to_string e));
      lat.(i) <- Engine.now () -. t0
    done;
    (host, lat)
  in
  let boot =
    Prefix.boot ~key:"test:chain@300" ~describe:"300 guests" (fun () ->
        grow (Vmm.create ~mode:Mode.chaos_xs (), [||]) ~upto:300)
  in
  let chain =
    Prefix.extend ~key:"test:chain@700" ~describe:"700 guests" boot
      (grow ~upto:700)
  in
  let render (_, lat) =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") lat))
  in
  List.iter
    (fun (name, p) ->
      Alcotest.(check string)
        (name ^ " fork = unbroken")
        (snd (Prefix.run ~snapshot:false p render))
        (snd (Prefix.run ~snapshot:true p render)))
    [ ("extended", chain); ("base", boot) ]

(* ------------------------------------------------------------------ *)
(* Fleet: the partitioned row's prefix point is the wave-1 barrier.
   Captured under any (partition, sim_jobs) config, the resumed second
   wave must match the unbroken two-wave run — and every cell of the
   matrix must agree with every other. *)

let test_fleet_snapshot_matrix () =
  Prefix.reset ();
  let digest ~snapshot partition sim_jobs =
    digest_piece
      (run_fork ~snapshot
         (Printf.sprintf "scale-fleet:%s/j%d@240"
            (E.partition_name partition) sim_jobs))
  in
  let reference = digest ~snapshot:false `Host 1 in
  List.iter
    (fun (partition, sim_jobs, name) ->
      Alcotest.(check string)
        ("unbroken " ^ name) reference
        (digest ~snapshot:false partition sim_jobs);
      Alcotest.(check string)
        ("snapshot " ^ name) reference
        (digest ~snapshot:true partition sim_jobs))
    [
      (`Host, 1, "host/j1"); (`Host, 8, "host/j8");
      (`None, 1, "none/j1"); (`None, 8, "none/j8");
    ]

(* ------------------------------------------------------------------ *)
(* Cluster drain under scaled migration faults: random (guests, seed,
   fault multiplier) triples, forked from the booted-cluster image vs
   simulated unbroken. *)

let drain_arb =
  QCheck.make
    ~print:(fun (n, seed, mult) ->
      Printf.sprintf "guests=%d seed=%Ld fault-scale=%g" n seed mult)
    QCheck.Gen.(
      triple (int_range 6 20)
        (map Int64.of_int (int_bound 10_000))
        (oneofl [ 0.5; 1.0; 2.0 ]))

let prop_drain_snapshot =
  QCheck.Test.make
    ~name:"drain from image = unbroken drain (scaled migrate.corrupt)"
    ~count:5 drain_arb (fun (guests, fault_seed, mult) ->
      Prefix.reset ();
      let spec = Fault.scale (parse_spec E.cluster_fault_spec) mult in
      let run snapshot =
        digest_piece
          (run_fork ~spec ~fault_seed ~snapshot
             (Printf.sprintf "cluster:drain@%d" guests))
      in
      String.equal (run false) (run true))

(* Restore-twice: the same suffix replayed from one image is
   reproducible (thaw makes a fresh copy each time, so the first replay
   cannot have consumed or mutated anything the second needs). *)
let test_restore_twice () =
  Prefix.reset ();
  let once snapshot =
    digest_piece (run_fork ~n:15 ~snapshot "scale:chaos-xs@150")
  in
  let first = once true in
  Alcotest.(check string) "second fork identical" first (once true);
  Alcotest.(check string) "fork = unbroken" (once false) first

(* ------------------------------------------------------------------ *)
(* Format hygiene. The header is checked magic-first, then version,
   then integrity, then producing binary, then (on request) config —
   each failure surfaces as its own structured error. *)

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let magic = "LVMSNAP\x01"

(* Structurally identical to the module's private header record: a
   4-field tag-0 block, so [input_value] reads it back as one. *)
let raw_header ~version ~binary ~config =
  Marshal.to_string (version, binary, config, Digest.string config) []

let check_error name expected_sub = function
  | Ok _ -> Alcotest.fail (name ^ ": expected an error")
  | Error err ->
      let msg = Checkpoint.error_to_string err in
      if not (Astring_check.contains (String.lowercase_ascii msg) expected_sub)
      then
        Alcotest.fail
          (Printf.sprintf "%s: error %S does not mention %S" name msg
             expected_sub)

let test_save_load_roundtrip () =
  let path = tmp "lvm_test_roundtrip.lvmsnap" in
  let payload = (42, "state", [ 1.5; 2.5 ]) in
  (match Checkpoint.save ~path ~config:"unit:roundtrip" payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  (match Checkpoint.inspect ~path with
  | Ok config -> Alcotest.(check string) "inspect config" "unit:roundtrip" config
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  match Checkpoint.load ~expect_config:"unit:roundtrip" ~path () with
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  | Ok (config, v) ->
      Alcotest.(check string) "stored config" "unit:roundtrip" config;
      Alcotest.(check bool) "payload round-trips" true (v = payload)

let test_header_mismatches () =
  let path = tmp "lvm_test_header.lvmsnap" in
  (* Not a snapshot at all. *)
  write_raw path "PNG\x89 definitely not a snapshot";
  check_error "garbage" "bad magic" (Checkpoint.inspect ~path);
  write_raw path "";
  check_error "empty" "bad magic" (Checkpoint.inspect ~path);
  (* Right magic, wrong format version. *)
  write_raw path
    (magic
    ^ raw_header
        ~version:(Checkpoint.format_version + 1)
        ~binary:(Digest.string "whatever") ~config:"scale:chaos-xs@100");
  check_error "future version" "format version" (Checkpoint.inspect ~path);
  (* Right version, foreign producing binary. *)
  write_raw path
    (magic
    ^ raw_header ~version:Checkpoint.format_version
        ~binary:(Digest.string "some other executable")
        ~config:"scale:chaos-xs@100");
  check_error "foreign binary" "different binary" (Checkpoint.inspect ~path);
  (* Valid file, caller expects a different config. *)
  (match Checkpoint.save ~path ~config:"unit:a" (1, 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  check_error "config mismatch" "config mismatch"
    (Checkpoint.load ~expect_config:"unit:b" ~path () :
      (string * (int * int), Checkpoint.error) result);
  (* Flipping a byte of the stored config breaks the header's config
     digest. The config is in the clear, so find it in the bytes. *)
  let valid = In_channel.with_open_bin path In_channel.input_all in
  let corrupt = Bytes.of_string valid in
  let i =
    let rec find i =
      if i + 6 > String.length valid then
        Alcotest.fail "stored config not found in file"
      else if String.equal (String.sub valid i 6) "unit:a" then i
      else find (i + 1)
    in
    find 0
  in
  Bytes.set corrupt (i + 5) 'z';
  write_raw path (Bytes.to_string corrupt);
  (match Checkpoint.inspect ~path with
  | Ok _ -> Alcotest.fail "tampered header accepted"
  | Error _ -> ());
  Sys.remove path

let test_not_quiesced () =
  (* A process asleep across the capture point parks an effect
     continuation in the heap: not a legal checkpoint. *)
  let _, saved =
    Engine.run_capture ~until:1.0 (fun () ->
        Engine.spawn ~name:"sleeper" (fun () -> Engine.sleep 10.))
  in
  match Checkpoint.freeze saved with
  | Error (Checkpoint.Not_quiesced _) -> ()
  | Error e ->
      Alcotest.fail ("expected Not_quiesced, got " ^ Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "parked continuation marshalled"

(* ------------------------------------------------------------------ *)
(* The CLI surface: snapshot_to_file / resume_from_file. For every key
   the catalogue lists, a resume from disk must equal the in-process
   fork (and hence the unbroken run); keys that do not parse are
   refused with [Error], never an exception. *)

let listed_keys partition = List.map fst (E.prefixes ~n:40 ~partition ())

let test_snapshot_file_roundtrip () =
  Prefix.reset ();
  let path = tmp "lvm_test_roundtrip_key.lvmsnap" in
  List.iter
    (fun partition ->
      List.iter
        (fun key ->
          (match E.snapshot_to_file ~n:40 ~partition ~key ~path () with
          | Ok _description -> ()
          | Error msg -> Alcotest.fail (key ^ ": " ^ msg));
          let resumed () =
            match E.resume_from_file ~n:40 ~path () with
            | Ok r ->
                digest_piece
                  {
                    E.p_series = r.E.series;
                    p_tables = r.E.tables;
                    p_notes = r.E.notes;
                    p_prefix_seconds = 0.;
                  }
            | Error msg -> Alcotest.fail (key ^ ": " ^ msg)
          in
          let first = resumed () in
          Alcotest.(check string) (key ^ " resume twice") first (resumed ());
          Alcotest.(check string)
            (key ^ " resume = in-process fork")
            (digest_piece (run_fork ~n:40 ~snapshot:true key))
            first)
        (listed_keys partition))
    [ `Host; `None ];
  Sys.remove path

(* Every listed key parses back to a prefix under the same key: the
   family's printer and scanner round-trip. *)
let test_key_roundtrip () =
  List.iter
    (fun key ->
      match E.fork key with
      | Ok (E.Fork { prefix; _ }) ->
          Alcotest.(check string) "printed back" key (Prefix.key prefix)
      | Error msg -> Alcotest.fail msg)
    (listed_keys `Host @ listed_keys `None
    @ List.map fst (E.prefixes ~n:10_000 ~sim_jobs:8 ()))

let malformed_keys =
  [
    ""; "scale"; "scale:bogus@10"; "scale:xl@"; "scale:xl@0"; "scale:xl@-5";
    "scale:xl@+5"; "scale:xl@05"; "scale:xl@1_000"; "scale:xl@10 ";
    "scale:xl@99999999999999999999999"; "scale-fleet:host/j1@abc";
    "scale-fleet:both/j1@40"; "scale-fleet:host@40"; "reliability:";
    "reliability:bogus"; "cluster:drain"; "cluster:drain@"; "cluster:fill@40";
    "nope:drain@40"; "cluster-scale:drain@x"; "serverless:warm@4x";
    "serverless:cold@4"; "serverless-day:host/jx@4"; "serverless-day:host/j1";
    "serverless-day:host/j0@4";
  ]

let test_malformed_keys_refused () =
  let path = tmp "lvm_test_malformed.lvmsnap" in
  List.iter
    (fun key ->
      (match E.fork key with
      | Ok _ -> Alcotest.failf "malformed key %S parsed" key
      | Error _ -> ());
      (match E.snapshot_to_file ~n:40 ~key ~path () with
      | Ok _ -> Alcotest.failf "malformed key %S snapshotted" key
      | Error _ -> ());
      (* A well-formed file whose stored key does not parse. *)
      (match Checkpoint.save ~path ~config:key (1, 2) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
      match E.resume_from_file ~path () with
      | Ok _ -> Alcotest.failf "malformed key %S resumed" key
      | Error _ -> ())
    malformed_keys;
  Sys.remove path

let test_snapshot_unknown_key () =
  match
    E.snapshot_to_file ~n:100 ~key:"scale:chaos-xs@99999"
      ~path:(tmp "lvm_test_unknown.lvmsnap") ()
  with
  | Ok _ -> Alcotest.fail "unknown prefix key accepted"
  | Error _ -> ()

let suites =
  [
    ( "checkpoint.prefix",
      catalogue_cases
      @ [
          Alcotest.test_case "extend chain: snapshot = unbroken" `Slow
            test_extend_chain;
          Alcotest.test_case "fleet: matrix snapshot = unbroken" `Slow
            test_fleet_snapshot_matrix;
          QCheck_alcotest.to_alcotest prop_drain_snapshot;
          Alcotest.test_case "restore twice from one image" `Quick
            test_restore_twice;
        ] );
    ( "checkpoint.format",
      [
        Alcotest.test_case "save/load round trip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "header mismatches refused" `Quick
          test_header_mismatches;
        Alcotest.test_case "unquiesced state refused" `Quick
          test_not_quiesced;
        Alcotest.test_case "snapshot/resume via file" `Slow
          test_snapshot_file_roundtrip;
        Alcotest.test_case "unknown prefix key refused" `Quick
          test_snapshot_unknown_key;
        Alcotest.test_case "key printers and parsers round-trip" `Quick
          test_key_roundtrip;
        Alcotest.test_case "malformed keys refused" `Quick
          test_malformed_keys_refused;
      ] );
  ]
