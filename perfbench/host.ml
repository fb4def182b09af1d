(** The host block every run records: how many cores the run may use
    and which OCaml runs it. *)

let read_lines (path : string) : string list =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(** The value of a [Key:\tvalue] line of [/proc/self/status]. *)
let status_field (key : string) : string option =
  let prefix = key ^ ":" in
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.length l >= n && String.sub l 0 n = prefix then
        Some (String.trim (String.sub l n (String.length l - n)))
      else None)
    (read_lines "/proc/self/status")

(** CPUs this process may run on, as [nproc] counts them (the affinity
    mask, e.g. [0-1,4]); the recommended domain count when unknown. *)
let nproc () : int =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
      List.fold_left
        (fun n range ->
          match String.split_on_char '-' (String.trim range) with
          | [ a; b ] -> n + int_of_string b - int_of_string a + 1
          | _ -> n + 1)
        0
        (String.split_on_char ',' list)

(** The core count jobs and workers are capped at. *)
let cores () : int = max 1 (min (Domain.recommended_domain_count ()) (nproc ()))

let describe () : string =
  Printf.sprintf "host recommended_domain_count=%d nproc=%d cores=%d ocaml=%s"
    (Domain.recommended_domain_count ())
    (nproc ()) (cores ()) Sys.ocaml_version

(** Peak resident set size of this process so far ([VmHWM]), in MB. *)
let peak_rss_mb () : float =
  match status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> failwith ("unreadable VmHWM: " ^ v))
  | None -> failwith "no VmHWM in /proc/self/status"
