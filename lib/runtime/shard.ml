(** Sharded append-only journals.

    One campaign journal becomes a list of independent append-only
    files, each carrying the same campaign header and each healing its
    own torn tail — so a crash mid-append loses at most the unsynced
    tail of the file being written, never the whole log.  The in-process
    executor uses one file; the campaign server uses [shards] files
    under the campaign's directory ({!shard_paths}).

    The shard of a record is chosen by the caller (the trial's batch
    index modulo the shard count), which keeps each batch's records
    contiguous in one file and lets a recovering reader replay shards
    in any order: the merged view is order-insensitive because records
    are keyed by trial index and {!Ledger} keeps the first per index. *)

type t = Journal.writer array

let shard_paths ~(dir : string) ~(shards : int) : string list =
  List.init shards (fun i ->
      Filename.concat dir (Printf.sprintf "shard-%03d.journal" i))

let rec ensure_dir (dir : string) =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh (header : Csexp.t) (path : string) : Journal.writer =
  ensure_dir (Filename.dirname path);
  let w = Journal.create path in
  Journal.write w header;
  Journal.sync w;
  w

let create (paths : string list) ~(header : Csexp.t) : t =
  if paths = [] then invalid_arg "Shard.create: no shard paths";
  Array.of_list (List.map (fresh header) paths)

exception Header_mismatch of { shard : string; found : Csexp.t }

let () =
  Printexc.register_printer (function
    | Header_mismatch { shard; found } ->
        Some
          (Printf.sprintf
             "Shard.Header_mismatch: %s does not open with the expected \
              campaign header (found %s); refusing to resume"
             shard (Csexp.to_string found))
    | _ -> None)

(** Reopen a journal for appending.  Every file is loaded and its
    header checked before any is opened, so a foreign journal is
    refused without a descriptor leaked or a byte truncated; then each
    torn tail is dropped at the offset [Journal.load] validated. *)
let open_resume (paths : string list) ~(header : Csexp.t) :
    t * Csexp.t list =
  if paths = [] then invalid_arg "Shard.open_resume: no shard paths";
  let loaded =
    List.map
      (fun path ->
        match Journal.load path with
        | h :: _, _ when h <> header ->
            raise (Header_mismatch { shard = path; found = h })
        | loaded -> (path, loaded))
      paths
  in
  let writers =
    List.map
      (fun (path, (recs, valid_end)) ->
        if recs = [] then fresh header path
        else Journal.open_append ~truncate_at:valid_end path)
      loaded
  in
  ( Array.of_list writers,
    List.concat_map
      (fun (_, (recs, _)) -> match recs with [] -> [] | _ :: rest -> rest)
      loaded )

let append (t : t) ~(shard : int) (r : Csexp.t) : unit =
  Journal.write t.(shard mod Array.length t) r

let sync (t : t) ~(shard : int) : unit =
  Journal.sync t.(shard mod Array.length t)

let close (t : t) : unit = Array.iter Journal.close t
