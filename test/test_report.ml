(* Tests for the table renderer. *)

module T = Report.Table

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let sample =
  T.make ~title:"demo" ~header:[ "name"; "value" ]
    ~notes:[ "a note" ]
    [ [ "alpha"; "1" ]; [ "beta, with comma"; "2" ] ]

let test_render_contains_cells () =
  let s = T.to_string sample in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "title" true (contains "== demo ==");
  check_bool "header" true (contains "name");
  check_bool "cell" true (contains "alpha");
  check_bool "note" true (contains "note: a note")

let test_columns_aligned () =
  let s = T.to_string sample in
  let lines = String.split_on_char '\n' s in
  let pipe_lines = List.filter (fun l -> String.length l > 0 && l.[0] = '|') lines in
  let width = String.length (List.hd pipe_lines) in
  List.iter
    (fun l -> Alcotest.(check int) "equal widths" width (String.length l))
    pipe_lines

let test_cells () =
  check_string "float" "3.14" (T.cell_float 3.14159);
  check_string "pct" "12.3%" (T.cell_pct 12.34)

let test_mismatched_row_rejected () =
  match T.make ~title:"t" ~header:[ "a" ] [ [ "1"; "2" ] ] with
  | _ -> Alcotest.fail "expected an assertion failure"
  | exception Assert_failure _ -> ()

let suite =
  ( "report",
    [ Alcotest.test_case "render" `Quick test_render_contains_cells;
      Alcotest.test_case "alignment" `Quick test_columns_aligned;
      Alcotest.test_case "cells" `Quick test_cells;
      Alcotest.test_case "bad row" `Quick test_mismatched_row_rejected ] )
