(* The ten benchmark programs: verification, reference-implementation
   cross-checks, region structure, iteration counts. *)

let test_all_apps_verify () =
  List.iter
    (fun (app : App.t) ->
      let r = App.reference app in
      Alcotest.(check bool) (app.App.name ^ " finished") true
        (r.Machine.outcome = Machine.Finished);
      Alcotest.(check bool) (app.App.name ^ " verified") true
        (App.verified r.Machine.output))
    Registry.all

let test_hardened_variants_verify () =
  List.iter
    (fun (app : App.t) ->
      Alcotest.(check bool) (app.App.name ^ " verified") true
        (App.verified (App.reference app).Machine.output))
    Registry.cg_variants

let test_iteration_counts () =
  List.iter
    (fun (app : App.t) ->
      Alcotest.(check int)
        (app.App.name ^ " iterations")
        app.App.main_iterations
        (App.reference app).Machine.iterations)
    Registry.all

let test_cg_matches_ocaml_reference () =
  Alcotest.(check (float 1e-12)) "zeta" (Cg.reference_zeta ())
    (App.reference_value Cg.app)

let test_is_matches_ocaml_reference () =
  Alcotest.(check (float 0.0)) "ranks" (Is.reference_result ())
    (App.reference_value Is.app)

let test_kmeans_matches_ocaml_reference () =
  Alcotest.(check (float 1e-9)) "inertia" (Kmeans.reference_inertia ())
    (App.reference_value Kmeans.app)

let test_dc_matches_ocaml_reference () =
  Alcotest.(check (float 0.0)) "checksum" (Dc.reference_checksum ())
    (App.reference_value Dc.app)

let test_mg_matches_ocaml_reference () =
  Alcotest.(check (float 0.0)) "residual norm" (Mg.reference_rnorm ())
    (App.reference_value Mg.app)

let test_lu_matches_ocaml_reference () =
  Alcotest.(check (float 0.0)) "residual norm" (Lu.reference_rnorm ())
    (App.reference_value Lu.app)

let test_region_instances_exist () =
  List.iter
    (fun (app : App.t) ->
      let _, t = App.trace app in
      let prog = App.program app in
      Array.iter
        (fun (info : Prog.region_info) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has instance 0" app.App.name info.Prog.rname)
            true
            (Region.find_instance t ~rid:info.Prog.rid ~number:0 <> None))
        prog.Prog.region_table)
    Registry.analyzed

let test_region_sizes_shape_cg () =
  (* cg_c (the cgit loop with the SpMV) dominates, as in the paper *)
  let _, t = App.trace Cg.app in
  let prog = App.program Cg.app in
  let size name =
    let rid = (Prog.region_by_name prog name).Prog.rid in
    match Region.find_instance t ~rid ~number:0 with
    | Some i -> Region.size i
    | None -> 0
  in
  Alcotest.(check bool) "cg_c biggest" true
    (size "cg_c" > size "cg_a"
     && size "cg_c" > size "cg_b"
     && size "cg_c" > size "cg_d"
     && size "cg_c" > size "cg_e")

let test_region_sizes_shape_mg () =
  (* mg_d (finest resid+smooth) biggest, mg_b (bottom solve) smallest *)
  let _, t = App.trace Mg.app in
  let prog = App.program Mg.app in
  let size name =
    let rid = (Prog.region_by_name prog name).Prog.rid in
    match Region.find_instance t ~rid ~number:0 with
    | Some i -> Region.size i
    | None -> 0
  in
  Alcotest.(check bool) "mg_d biggest" true
    (size "mg_d" > size "mg_a" && size "mg_d" > size "mg_c");
  Alcotest.(check bool) "mg_b smallest" true
    (size "mg_b" < size "mg_a" && size "mg_b" < size "mg_c")

let test_kmeans_small_regions () =
  (* k_b and k_d are tiny relative to the assignment loop k_c, as in
     Table I (62 and 36 instructions vs 2.19M) *)
  let _, t = App.trace Kmeans.app in
  let prog = App.program Kmeans.app in
  let size name =
    let rid = (Prog.region_by_name prog name).Prog.rid in
    match Region.find_instance t ~rid ~number:0 with
    | Some i -> Region.size i
    | None -> 0
  in
  Alcotest.(check bool) "k_c dominates" true
    (size "k_c" > 50 * size "k_b" && size "k_c" > 50 * size "k_d")

let test_lulesh_prints_truncated_energy () =
  let r = App.reference Lulesh.app in
  Alcotest.(check bool) "%12.6e output present" true
    (let out = r.Machine.output in
     let rec scan i =
       if i + 2 > String.length out then false
       else if String.equal (String.sub out i 2) "e=" then true
       else scan (i + 1)
     in
     scan 0)

let test_verification_is_conditional () =
  (* the baked verification phase is a conditional-statement pattern:
     its static report must include at least one branch in main *)
  let prog = App.program Cg.app in
  let r = Static_detect.analyze prog in
  Alcotest.(check bool) "branches exist" true
    (List.exists
       (fun (s : Static_detect.site) -> String.equal s.Static_detect.fname "main")
       r.Static_detect.conditionals)

let test_sprnvc_duplicate_free () =
  (* CG's sprnvc must generate distinct iv entries (the duplicate check
     is the was_gen loop of Figure 12) *)
  let prog = App.program Cg.app in
  let r = Machine.run_plain prog in
  let base =
    match Prog.find_symbol prog "iv" with
    | Some s -> s.Prog.sym_addr
    | None -> Alcotest.fail "iv symbol"
  in
  let vals = List.init Cg.nonzer (fun k -> Value.to_int r.Machine.mem.{base + k}) in
  Alcotest.(check int) "distinct iv entries" (List.length vals)
    (List.length (List.sort_uniq compare vals))

let test_parse_result () =
  Alcotest.(check (option (float 0.0))) "parses" (Some 3.5)
    (App.parse_result "noise\nRESULT 3.5\nVERIFIED 1\n");
  Alcotest.(check (option (float 0.0))) "absent" None (App.parse_result "nothing")

let test_verified_parser () =
  Alcotest.(check bool) "accepts" true (App.verified "...\nVERIFIED 1\n");
  Alcotest.(check bool) "rejects 0" false (App.verified "...\nVERIFIED 0\n");
  Alcotest.(check bool) "rejects absent" false (App.verified "RESULT 2\n")

let test_registry_find () =
  Alcotest.(check string) "find CG" "CG" (Registry.find "CG").App.name;
  Alcotest.(check string) "case-insensitive" "CG" (Registry.find "cg").App.name;
  (match Registry.find "NOPE" with
  | _ -> Alcotest.fail "expected Unknown_app"
  | exception Registry.Unknown_app { name; known; _ } ->
      Alcotest.(check string) "error carries the name" "NOPE" name;
      Alcotest.(check bool) "error lists known apps" true
        (List.mem "CG" known));
  (* a typo gets a near-match suggestion *)
  (match Registry.find "LULESHH" with
  | _ -> Alcotest.fail "expected Unknown_app"
  | exception Registry.Unknown_app { suggestions; _ } ->
      Alcotest.(check bool) "suggests LULESH" true
        (List.mem "LULESH" suggestions))

let test_app_instruction_budget_sanity () =
  (* apps stay in the tractable range the campaigns assume *)
  List.iter
    (fun (app : App.t) ->
      let r = App.reference app in
      Alcotest.(check bool)
        (app.App.name ^ " instruction count sane")
        true
        (r.Machine.instructions > 10_000 && r.Machine.instructions < 5_000_000))
    Registry.all

let suite =
  ( "apps",
    [
      Alcotest.test_case "all verify" `Quick test_all_apps_verify;
      Alcotest.test_case "hardened variants verify" `Quick
        test_hardened_variants_verify;
      Alcotest.test_case "iteration counts" `Quick test_iteration_counts;
      Alcotest.test_case "CG = OCaml reference" `Quick test_cg_matches_ocaml_reference;
      Alcotest.test_case "IS = OCaml reference" `Quick test_is_matches_ocaml_reference;
      Alcotest.test_case "KMEANS = OCaml reference" `Quick
        test_kmeans_matches_ocaml_reference;
      Alcotest.test_case "DC = OCaml reference" `Quick test_dc_matches_ocaml_reference;
      Alcotest.test_case "MG = OCaml reference" `Quick test_mg_matches_ocaml_reference;
      Alcotest.test_case "LU = OCaml reference" `Quick test_lu_matches_ocaml_reference;
      Alcotest.test_case "region instances exist" `Quick test_region_instances_exist;
      Alcotest.test_case "CG region shape" `Quick test_region_sizes_shape_cg;
      Alcotest.test_case "MG region shape" `Quick test_region_sizes_shape_mg;
      Alcotest.test_case "KMEANS region shape" `Quick test_kmeans_small_regions;
      Alcotest.test_case "LULESH truncated print" `Quick
        test_lulesh_prints_truncated_energy;
      Alcotest.test_case "verification is conditional" `Quick
        test_verification_is_conditional;
      Alcotest.test_case "sprnvc duplicates" `Quick test_sprnvc_duplicate_free;
      Alcotest.test_case "parse result" `Quick test_parse_result;
      Alcotest.test_case "verified parser" `Quick test_verified_parser;
      Alcotest.test_case "registry find" `Quick test_registry_find;
      Alcotest.test_case "instruction budgets" `Quick
        test_app_instruction_budget_sanity;
    ] )
