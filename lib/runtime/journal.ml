(** Append-only on-disk journal of csexp records.

    The checkpoint/restart half of the resilience patterns applied to
    our own experiment infrastructure: every completed unit of work is
    appended as one self-delimiting csexp record and fsync'd in
    batches, so a killed process loses at most the unsynced tail and a
    restart resumes from the last complete record.

    Crash tolerance on read: [load] decodes the longest valid prefix
    and reports where it ends; [open_append ~truncate_at] drops a
    torn tail before appending, so a journal that died mid-write heals
    on the next run. *)

type writer = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable closed : bool;
}

let load (path : string) : Csexp.t list * int =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Csexp.decode_prefix s
  end

let open_append ?(truncate_at : int option) (path : string) : writer =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (match truncate_at with
  | Some off -> Unix.ftruncate fd off
  | None -> ());
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  { fd; buf = Buffer.create 4096; closed = false }

let create (path : string) : writer =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  { fd; buf = Buffer.create 4096; closed = false }

(** Buffer one record; nothing reaches the disk until [sync]. *)
let write (w : writer) (x : Csexp.t) : unit =
  if w.closed then invalid_arg "Journal.write: closed";
  Csexp.to_buffer w.buf x;
  Buffer.add_char w.buf '\n'

(** Flush the buffered records in one [write] and fsync: records are
    durable in batches, not one syscall per trial. *)
let sync (w : writer) : unit =
  if w.closed then invalid_arg "Journal.sync: closed";
  let s = Buffer.contents w.buf in
  Buffer.clear w.buf;
  if String.length s > 0 then begin
    let n = String.length s in
    let written = ref 0 in
    while !written < n do
      written :=
        !written
        + Unix.write_substring w.fd s !written (n - !written)
    done;
    Unix.fsync w.fd
  end

let close (w : writer) : unit =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    Unix.close w.fd
  end
