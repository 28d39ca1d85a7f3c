type op =
  | Debug
  | Directory
  | Read
  | Get_perms
  | Watch
  | Unwatch
  | Transaction_start
  | Transaction_end
  | Introduce
  | Release
  | Get_domain_path
  | Write
  | Mkdir
  | Rm
  | Set_perms
  | Watch_event
  | Error
  | Is_domain_introduced
  | Resume
  | Set_target

(* The numeric codes of the real protocol. Direct matches (compiled to
   jump tables) rather than an assoc list: every message packs one and
   unpacks one, so these sit on the wire hot path. *)
let op_to_int = function
  | Debug -> 0
  | Directory -> 1
  | Read -> 2
  | Get_perms -> 3
  | Watch -> 4
  | Unwatch -> 5
  | Transaction_start -> 6
  | Transaction_end -> 7
  | Introduce -> 8
  | Release -> 9
  | Get_domain_path -> 10
  | Write -> 11
  | Mkdir -> 12
  | Rm -> 13
  | Set_perms -> 14
  | Watch_event -> 15
  | Error -> 16
  | Is_domain_introduced -> 17
  | Resume -> 18
  | Set_target -> 19

let op_of_int = function
  | 0 -> Some Debug
  | 1 -> Some Directory
  | 2 -> Some Read
  | 3 -> Some Get_perms
  | 4 -> Some Watch
  | 5 -> Some Unwatch
  | 6 -> Some Transaction_start
  | 7 -> Some Transaction_end
  | 8 -> Some Introduce
  | 9 -> Some Release
  | 10 -> Some Get_domain_path
  | 11 -> Some Write
  | 12 -> Some Mkdir
  | 13 -> Some Rm
  | 14 -> Some Set_perms
  | 15 -> Some Watch_event
  | 16 -> Some Error
  | 17 -> Some Is_domain_introduced
  | 18 -> Some Resume
  | 19 -> Some Set_target
  | _ -> None

type header = {
  op : op;
  req_id : int32;
  tx_id : int32;
  len : int;
}

let header_size = 16
let max_payload = 4096

exception Malformed of string

let payload_bytes strings =
  List.fold_left (fun acc s -> acc + String.length s + 1) 0 strings

let pack op ~req_id ~tx_id strings =
  let len = payload_bytes strings in
  if len > max_payload then
    raise (Malformed (Printf.sprintf "payload too large: %d" len));
  let buf = Bytes.create (header_size + len) in
  Bytes.set_int32_le buf 0 (Int32.of_int (op_to_int op));
  Bytes.set_int32_le buf 4 req_id;
  Bytes.set_int32_le buf 8 tx_id;
  Bytes.set_int32_le buf 12 (Int32.of_int len);
  let pos = ref header_size in
  List.iter
    (fun s ->
      Bytes.blit_string s 0 buf !pos (String.length s);
      Bytes.set buf (!pos + String.length s) '\000';
      pos := !pos + String.length s + 1)
    strings;
  buf

let unpack_header buf =
  if Bytes.length buf < header_size then
    raise (Malformed "short header");
  let opcode = Int32.to_int (Bytes.get_int32_le buf 0) in
  match op_of_int opcode with
  | None -> raise (Malformed (Printf.sprintf "unknown op %d" opcode))
  | Some op ->
      let len = Int32.to_int (Bytes.get_int32_le buf 12) in
      if len < 0 then
        raise (Malformed (Printf.sprintf "negative length %d" len));
      {
        op;
        req_id = Bytes.get_int32_le buf 4;
        tx_id = Bytes.get_int32_le buf 8;
        len;
      }

let unpack buf =
  let header = unpack_header buf in
  if Bytes.length buf < header_size + header.len then
    raise (Malformed "truncated payload");
  if header.len > max_payload then raise (Malformed "oversized payload");
  (* Slice the NUL-terminated strings straight out of [buf]: each
     fragment is copied exactly once, with no intermediate payload
     string, no split list and no reversal. A well-formed payload ends
     with a NUL, so the scan stopping at [limit] drops the trailing
     empty fragment for free; an unterminated trailing fragment is kept
     as-is (same behaviour as splitting the copied payload). *)
  let limit = header_size + header.len in
  let rec strings pos =
    if pos >= limit then []
    else
      let stop =
        match Bytes.index_from_opt buf pos '\000' with
        | Some i when i < limit -> i
        | Some _ | None -> limit
      in
      let s = Bytes.sub_string buf pos (stop - pos) in
      s :: strings (stop + 1)
  in
  (header, strings header_size)
