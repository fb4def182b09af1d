(** Framed csexp transport over a stream socket: the campaign server's
    wire, and a fail-stop one.

    Every application message travels in a frame
    [(f <checksum> <payload>)]: an FNV-1a checksum of the payload bytes
    and the payload as one atom holding the encoded csexp.  The socket
    is already reliable and ordered, so there is nothing to resend:
    a frame that fails its checksum or does not parse means the peer is
    broken (a half-written frame from a SIGKILLed worker, a buggy or
    hostile client), and [recv] raises {!Corrupt}.  The scheduler
    answers that the way it answers any dead worker — kill it and steal
    its lease — so detection, containment and recovery each happen once.

    Each connection reads into one buffer of its own, decoding frames
    in place; every blocking receive carries a wall-clock deadline and
    raises {!Timeout} instead of hanging the server's event loop. *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (** [buf] bytes in [start, stop) are undecoded *)
  mutable stop : int;
}

exception Closed
exception Timeout of { what : string; after_s : float }
exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Closed -> Some "Wire.Closed: peer hung up"
    | Timeout { what; after_s } ->
        Some (Printf.sprintf "Wire.Timeout: %s after %.3fs" what after_s)
    | Corrupt m -> Some (Printf.sprintf "Wire.Corrupt: %s" m)
    | _ -> None)

let of_fd (fd : Unix.file_descr) : conn =
  { fd; buf = Bytes.create 65536; start = 0; stop = 0 }

let fd (t : conn) : Unix.file_descr = t.fd

let close (t : conn) : unit = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* FNV-1a 64-bit, the same family Comm uses for payload checksums *)
let checksum (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let max_frame = 1 lsl 24

let write_all (t : conn) (s : string) : unit =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring t.fd s !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Closed
  done

let send (t : conn) (msg : Csexp.t) : unit =
  let payload = Csexp.to_string msg in
  write_all t
    (Csexp.to_string
       (Csexp.List
          [
            Csexp.Atom "f";
            Csexp.Atom (Int64.to_string (checksum payload));
            Csexp.Atom payload;
          ]))

(* The next message in the buffer; [None] until a whole frame is in *)
let take_frame (t : conn) : Csexp.t option =
  if t.start = t.stop then None
  else if Bytes.get t.buf t.start <> '(' then
    raise (Corrupt "unframed bytes on the wire")
  else
    (* the decoder copies every atom out, so the string view of [buf]
       never outlives this call *)
    match
      Csexp.decode_one ~stop:t.stop (Bytes.unsafe_to_string t.buf) ~pos:t.start
    with
    | None ->
        if t.stop - t.start > max_frame then
          raise
            (Corrupt "inbound buffer exceeded 16 MiB without a valid frame");
        None
    | Some (frame, next) -> (
        t.start <- next;
        match frame with
        | Csexp.List [ Csexp.Atom "f"; Csexp.Atom sum; Csexp.Atom payload ] -> (
            if Int64.of_string_opt sum <> Some (checksum payload) then
              raise (Corrupt "frame checksum mismatch");
            match Csexp.of_string payload with
            | Some msg -> Some msg
            | None -> raise (Corrupt "frame payload is not a csexp"))
        | _ -> raise (Corrupt "unframed bytes on the wire"))

(* Append what the socket has to the buffer: undecoded bytes slide to
   the front first, and the buffer doubles only when one frame
   outgrows it *)
let read_some (t : conn) : unit =
  if t.start > 0 then begin
    Bytes.blit t.buf t.start t.buf 0 (t.stop - t.start);
    t.stop <- t.stop - t.start;
    t.start <- 0
  end;
  if t.stop = Bytes.length t.buf then begin
    let bigger = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 bigger 0 t.stop;
    t.buf <- bigger
  end;
  match Unix.read t.fd t.buf t.stop (Bytes.length t.buf - t.stop) with
  | 0 -> raise Closed
  | n -> t.stop <- t.stop + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed

let recv (t : conn) ~(timeout_s : float) : Csexp.t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match take_frame t with
    | Some msg -> msg
    | None ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then
          raise (Timeout { what = "recv"; after_s = timeout_s });
        (match Unix.select [ t.fd ] [] [] remaining with
        | [], _, _ -> raise (Timeout { what = "recv"; after_s = timeout_s })
        | _ :: _, _, _ -> read_some t
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

let try_recv (t : conn) : Csexp.t option =
  match take_frame t with
  | Some msg -> Some msg
  | None -> (
      match Unix.select [ t.fd ] [] [] 0.0 with
      | [], _, _ -> None
      | _ :: _, _, _ ->
          read_some t;
          take_frame t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None)

let pair () : conn * conn =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (of_fd a, of_fd b)
