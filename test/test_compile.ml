(* Compiler lowering: expressions, control flow, arrays, calls, the
   region/mark/symbol metadata, and rejection of ill-typed programs. *)

open Helpers

let expr_result (e : Ast.expr) (ty : Ty.t) : Value.t =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ (match ty with Ty.F64 -> DScalar ("r", Ty.F64) | I64 -> DScalar ("r", Ty.I64)) ]
         [ SAssign ("r", e) ])
  in
  let r = run prog in
  check_finished r;
  mem_scalar prog r "r"

let test_arith_lowering () =
  let open Ast in
  Alcotest.(check int64) "int expr" 14L
    (expr_result ((i 2 + i 3) * i 4 - i 6) Ty.I64);
  Alcotest.(check (float 1e-12)) "float expr" 2.0
    (Value.to_float (expr_result (sqrt_ (f 16.0) / f 2.0) Ty.F64));
  Alcotest.(check int64) "precedence-free tree" 10L
    (expr_result (i 100 / (i 2 * i 5)) Ty.I64)

let test_comparison_results () =
  let open Ast in
  Alcotest.(check int64) "lt" 1L (expr_result (i 1 < i 2) Ty.I64);
  Alcotest.(check int64) "combined" 1L
    (expr_result (Bin (AndB, i 1 < i 2, i 3 > i 2)) Ty.I64)

let test_for_loop () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("s", Ty.I64) ]
         [
           SAssign ("s", i 0);
           SFor ("j", i 0, i 10, [ SAssign ("s", v "s" + v "j") ]);
         ])
  in
  let r = run prog in
  check_finished r;
  Alcotest.(check int) "sum 0..9" 45 (mem_int prog r "s")

let test_for_step () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("s", Ty.I64) ]
         [
           SAssign ("s", i 0);
           SForStep ("j", i 0, i 10, i 3, [ SAssign ("s", v "s" + v "j") ]);
         ])
  in
  let r = run prog in
  Alcotest.(check int) "0+3+6+9" 18 (mem_int prog r "s")

let test_while_loop () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("n", Ty.I64); DScalar ("c", Ty.I64) ]
         [
           SAssign ("n", i 100);
           SAssign ("c", i 0);
           SWhile
             ( v "n" > i 1,
               [
                 SIf
                   ( Bin (AndB, v "n", i 1) = i 0,
                     [ SAssign ("n", v "n" / i 2) ],
                     [ SAssign ("n", (i 3 * v "n") + i 1) ] );
                 SAssign ("c", v "c" + i 1);
               ] );
         ])
  in
  let r = run prog in
  Alcotest.(check int) "collatz steps of 100" 25 (mem_int prog r "c")

let test_if_branches () =
  let open Ast in
  let branchy cond =
    let prog =
      compile
        (main_program
           ~globals:[ DScalar ("r", Ty.I64) ]
           [ SIf (cond, [ SAssign ("r", i 1) ], [ SAssign ("r", i 2) ]) ])
    in
    mem_int prog (run prog) "r"
  in
  Alcotest.(check int) "then" 1 (branchy Ast.(i 3 < i 5));
  Alcotest.(check int) "else" 2 (branchy Ast.(i 5 < i 3))

let test_array_row_major () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DArr ("a", Ty.I64, [ 3; 4 ]); DScalar ("r", Ty.I64) ]
         [
           SFor
             ( "j",
               i 0,
               i 3,
               [
                 SFor
                   ( "k",
                     i 0,
                     i 4,
                     [ SStore ("a", [ v "j"; v "k" ], (v "j" * i 10) + v "k") ]
                   );
               ] );
           SAssign ("r", idx2 "a" (i 2) (i 3));
         ])
  in
  let r = run prog in
  Alcotest.(check int) "a[2][3]" 23 (mem_int prog r "r");
  (* the symbol table agrees with the lowered layout *)
  let addr = Prog.addr_of_element prog "a" [ 2; 3 ] in
  Alcotest.(check int) "symbol addressing" 23
    (Value.to_int r.Machine.mem.{addr})

let test_function_call_scalar () =
  let open Ast in
  let sq =
    {
      Ast.fname = "square";
      params = [ { pname = "x"; pty = Ty.F64; parr = false; pdims = [] } ];
      ret = Some Ty.F64;
      locals = [];
      body = [ SRet (Some (v "x" * v "x")) ];
    }
  in
  let prog =
    compile
      (main_program ~funs:[ sq ]
         ~globals:[ DScalar ("r", Ty.F64) ]
         [ SAssign ("r", CallE ("square", [ f 3.0 ]) + f 1.0) ])
  in
  Alcotest.(check (float 1e-12)) "square(3)+1" 10.0 (mem_float prog (run prog) "r")

let test_function_call_array_param () =
  let open Ast in
  let sum =
    {
      Ast.fname = "sum3";
      params = [ { pname = "xs"; pty = Ty.F64; parr = true; pdims = [] } ];
      ret = Some Ty.F64;
      locals = [ DScalar ("acc", Ty.F64) ];
      body =
        [
          SAssign ("acc", f 0.0);
          SFor ("j", i 0, i 3, [ SAssign ("acc", v "acc" + idx1 "xs" (v "j")) ]);
          SRet (Some (v "acc"));
        ];
    }
  in
  let prog =
    compile
      (main_program ~funs:[ sum ]
         ~globals:[ DArr ("data", Ty.F64, [ 3 ]); DScalar ("r", Ty.F64) ]
         [
           SStore ("data", [ i 0 ], f 1.0);
           SStore ("data", [ i 1 ], f 2.0);
           SStore ("data", [ i 2 ], f 4.0);
           SAssign ("r", CallE ("sum3", [ Var "data" ]));
         ])
  in
  Alcotest.(check (float 1e-12)) "sum" 7.0 (mem_float prog (run prog) "r")

let test_recursion_rejected () =
  let open Ast in
  let f1 =
    {
      Ast.fname = "f1"; params = []; ret = None; locals = [];
      body = [ SCall ("f2", []) ];
    }
  in
  let f2 =
    {
      Ast.fname = "f2"; params = []; ret = None; locals = [];
      body = [ SCall ("f1", []) ];
    }
  in
  Alcotest.(check bool) "mutual recursion detected" true
    (try ignore (compile (main_program ~funs:[ f1; f2 ] [ SCall ("f1", []) ])); false
     with Compile.Error _ -> true)

let test_type_errors_rejected () =
  let open Ast in
  let rejects body globals =
    try ignore (compile (main_program ~globals body)); false
    with Compile.Error _ -> true
  in
  Alcotest.(check bool) "float+int" true
    (rejects [ SAssign ("x", f 1.0 + i 1) ] [ DScalar ("x", Ty.F64) ]);
  Alcotest.(check bool) "shift on float" true
    (rejects [ SAssign ("x", f 1.0 << i 1) ] [ DScalar ("x", Ty.F64) ]);
  Alcotest.(check bool) "unknown variable" true
    (rejects [ SAssign ("nope", i 1) ] []);
  Alcotest.(check bool) "scalar indexing" true
    (rejects [ SAssign ("x", idx1 "y" (i 0)) ]
       [ DScalar ("x", Ty.I64); DScalar ("y", Ty.I64) ]);
  Alcotest.(check bool) "bad print arity" true
    (rejects [ SPrint ("%d %d\n", [ i 1 ]) ] [])

let test_region_table () =
  let prog = compile (two_region_program ()) in
  Alcotest.(check int) "two regions" 2 (Array.length prog.Prog.region_table);
  let p = Prog.region_by_name prog "produce" in
  Alcotest.(check int) "line lo" 10 p.Prog.line_lo;
  Alcotest.(check int) "line hi" 20 p.Prog.line_hi;
  (* instructions inside the region carry its id *)
  let f0 = prog.Prog.funcs.(prog.Prog.entry) in
  let tagged = Array.to_list f0.Prog.regions |> List.filter (fun r -> r >= 0) in
  Alcotest.(check bool) "instructions tagged" true (List.length tagged > 0)

let test_marks () =
  let prog = compile (loop_program ~iters:3) in
  Alcotest.(check int) "one mark" 1 (Array.length prog.Prog.mark_names);
  Alcotest.(check int) "mark id" 0 (Prog.mark_id prog "main_iter")

let test_symbols () =
  let prog = compile (two_region_program ()) in
  (match Prog.find_symbol prog "out" with
  | Some s ->
      Alcotest.(check bool) "f64" true (Ty.equal s.Prog.sym_ty Ty.F64);
      Alcotest.(check (list int)) "scalar dims" [] s.Prog.sym_dims
  | None -> Alcotest.fail "symbol out missing");
  Alcotest.(check bool) "type_of_addr" true
    (match Prog.find_symbol prog "out" with
    | Some s -> Prog.type_of_addr prog s.Prog.sym_addr = Some Ty.F64
    | None -> false)

let test_validate_all_apps () =
  (* every registered benchmark lowers to a structurally valid program *)
  List.iter
    (fun (app : App.t) ->
      let prog = compile (app.App.build ~ref_value:None) in
      Prog.validate prog;
      Alcotest.(check bool)
        (app.App.name ^ " has regions")
        true
        (Array.length prog.Prog.region_table
         = List.length app.App.region_names))
    Registry.all

let test_registry_region_names () =
  List.iter
    (fun (app : App.t) ->
      let prog = compile (app.App.build ~ref_value:None) in
      List.iteri
        (fun k name ->
          Alcotest.(check string)
            (app.App.name ^ " region order")
            name
            prog.Prog.region_table.(k).Prog.rname)
        app.App.region_names)
    Registry.all

let suite =
  ( "compile",
    [
      Alcotest.test_case "arithmetic lowering" `Quick test_arith_lowering;
      Alcotest.test_case "comparison results" `Quick test_comparison_results;
      Alcotest.test_case "for loop" `Quick test_for_loop;
      Alcotest.test_case "for with step" `Quick test_for_step;
      Alcotest.test_case "while loop" `Quick test_while_loop;
      Alcotest.test_case "if branches" `Quick test_if_branches;
      Alcotest.test_case "array row-major layout" `Quick test_array_row_major;
      Alcotest.test_case "scalar function call" `Quick test_function_call_scalar;
      Alcotest.test_case "array parameter call" `Quick test_function_call_array_param;
      Alcotest.test_case "recursion rejected" `Quick test_recursion_rejected;
      Alcotest.test_case "type errors rejected" `Quick test_type_errors_rejected;
      Alcotest.test_case "region table" `Quick test_region_table;
      Alcotest.test_case "iteration marks" `Quick test_marks;
      Alcotest.test_case "symbol table" `Quick test_symbols;
      Alcotest.test_case "all apps validate" `Quick test_validate_all_apps;
      Alcotest.test_case "registry region names" `Quick test_registry_region_names;
    ] )
