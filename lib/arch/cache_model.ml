(** A small parameterized cache layered over the VM's flat memory.

    Write-back, write-allocate, LRU within a set.  Fault-free the cache
    is semantically transparent — every read returns exactly what the
    flat memory would have returned, and a final {!flush} leaves the
    memory image identical to an uncached run — so the VM only
    simulates it when a cache fault is armed, and fault-free runs (and
    therefore all historical campaign counts) are untouched.

    The injectable surface is the per-line metadata (tag, valid, dirty)
    and the data words.  A flipped tag renames the line: subsequent
    accesses to the original address miss and refill from (possibly
    stale) memory, and the renamed line eventually writes back to the
    {e wrong} address — the "silently serves the wrong word" failure.
    A flipped dirty bit loses every store buffered in the line at
    eviction.  Out-of-range writebacks (reachable only through a
    corrupted tag) are dropped and out-of-range fills read zero, so
    every corrupted execution stays deterministic. *)

type geometry = { sets : int; ways : int; line_words : int }

let default_geometry = { sets = 16; ways = 2; line_words = 4 }

let direct_mapped ~sets ~line_words = { sets; ways = 1; line_words }

let validate_geometry g =
  if g.sets <= 0 || g.ways <= 0 || g.line_words <= 0 then
    invalid_arg "Cache_model: geometry fields must be positive"

let lines g = g.sets * g.ways

let geometry_to_string g =
  Printf.sprintf "%dx%dx%d" g.sets g.ways g.line_words

let geometry_of_string s =
  match String.split_on_char 'x' s with
  | [ a; b; c ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
      | Some sets, Some ways, Some line_words
        when sets > 0 && ways > 0 && line_words > 0 ->
          Ok { sets; ways; line_words }
      | _ -> Error (Printf.sprintf "bad cache geometry %S" s))
  | _ ->
      Error
        (Printf.sprintf
           "bad cache geometry %S (expected SETSxWAYSxWORDS, e.g. 16x2x4)" s)

(* Tag width for a memory of [mem_words] words: enough bits to name any
   in-range line of the memory within its set.  This is the injectable
   width of the Tag field — flips within it can rename a line to any
   other (or an out-of-range) memory line. *)
let tag_bits g ~mem_words =
  validate_geometry g;
  let mem_lines = max 1 ((max 1 mem_words + g.line_words - 1) / g.line_words) in
  let tags = max 2 ((mem_lines + g.sets - 1) / g.sets) in
  let rec bits n acc = if n <= 1 then acc else bits ((n + 1) / 2) (acc + 1) in
  bits tags 0

type field = Tag | Valid | Dirty | Word of int

type loc = { set : int; way : int; field : field }

let field_to_string = function
  | Tag -> "tag"
  | Valid -> "valid"
  | Dirty -> "dirty"
  | Word w -> Printf.sprintf "word %d" w

let loc_to_string l =
  Printf.sprintf "set %d way %d %s" l.set l.way (field_to_string l.field)

type entry = {
  mutable tag : int;
  mutable valid : bool;
  mutable dirty : bool;
  data : int64 array;
  mutable stamp : int;  (** LRU timestamp: larger = more recently used *)
}

type t = { geom : geometry; entries : entry array array; mutable tick : int }

let create geom =
  validate_geometry geom;
  {
    geom;
    entries =
      Array.init geom.sets (fun _ ->
          Array.init geom.ways (fun _ ->
              {
                tag = 0;
                valid = false;
                dirty = false;
                data = Array.make geom.line_words 0L;
                stamp = 0;
              }));
    tick = 0;
  }

let geometry t = t.geom

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let write_back g (mem : Mem.t) e set =
  let base = ((e.tag * g.sets) + set) * g.line_words in
  for w = 0 to g.line_words - 1 do
    let a = base + w in
    if a >= 0 && a < Mem.length mem then mem.{a} <- e.data.(w)
  done

let fill g (mem : Mem.t) e set tag =
  let base = ((tag * g.sets) + set) * g.line_words in
  for w = 0 to g.line_words - 1 do
    let a = base + w in
    e.data.(w) <- (if a >= 0 && a < Mem.length mem then mem.{a} else 0L)
  done;
  e.tag <- tag;
  e.valid <- true;
  e.dirty <- false

(* Find (or fill) the line holding word [a]; returns the entry and the
   word offset within the line.  [a] must be a valid memory address —
   the VM bounds-checks before reaching the cache. *)
let lookup t (mem : Mem.t) a =
  let g = t.geom in
  let line = a / g.line_words in
  let off = a mod g.line_words in
  let set = line mod g.sets in
  let tag = line / g.sets in
  let ways = t.entries.(set) in
  let hit = ref None in
  for w = 0 to g.ways - 1 do
    let e = ways.(w) in
    if !hit = None && e.valid && e.tag = tag then hit := Some e
  done;
  match !hit with
  | Some e ->
      touch t e;
      (e, off)
  | None ->
      (* victim: first invalid way, else least recently used *)
      let victim = ref ways.(0) in
      let found_invalid = ref false in
      for w = 0 to g.ways - 1 do
        if (not !found_invalid) && not ways.(w).valid then begin
          victim := ways.(w);
          found_invalid := true
        end
      done;
      if not !found_invalid then
        for w = 1 to g.ways - 1 do
          if ways.(w).stamp < !victim.stamp then victim := ways.(w)
        done;
      let e = !victim in
      if e.valid && e.dirty then write_back g mem e set;
      fill g mem e set tag;
      touch t e;
      (e, off)

let read t mem a =
  let e, off = lookup t mem a in
  e.data.(off)

let write t mem a v =
  let e, off = lookup t mem a in
  e.data.(off) <- v;
  e.dirty <- true

let flush t mem =
  let g = t.geom in
  for set = 0 to g.sets - 1 do
    for w = 0 to g.ways - 1 do
      let e = t.entries.(set).(w) in
      if e.valid && e.dirty then begin
        write_back g mem e set;
        e.dirty <- false
      end
    done
  done

let invalidate t =
  Array.iter
    (Array.iter (fun e ->
         e.valid <- false;
         e.dirty <- false))
    t.entries

(* Corrupt one metadata field or data word.  [f] receives the field's
   current value as an int64 and returns the corrupted one; single-bit
   boolean fields keep only bit 0, tags are clamped non-negative so a
   corrupted tag always denotes a (possibly out-of-range) line. *)
let corrupt t (l : loc) ~(f : int64 -> int64) =
  let e = t.entries.(l.set).(l.way) in
  match l.field with
  | Tag ->
      let v = f (Int64.of_int e.tag) in
      e.tag <- Int64.to_int (Int64.logand v 0x3FFF_FFFF_FFFF_FFFFL)
  | Valid ->
      let v = f (if e.valid then 1L else 0L) in
      e.valid <- not (Int64.equal (Int64.logand v 1L) 0L)
  | Dirty ->
      let v = f (if e.dirty then 1L else 0L) in
      e.dirty <- not (Int64.equal (Int64.logand v 1L) 0L)
  | Word w -> e.data.(w) <- f e.data.(w)
