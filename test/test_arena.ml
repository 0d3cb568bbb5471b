(* Tests for the flat-array arena: growable int/float buffers,
   generation-stamped sets, the open-addressing int table, pair
   encoding, and CSR construction. *)

module Arena = Mcss_core.Arena

let test_ibuf () =
  let b = Arena.Ibuf.create ~capacity:2 () in
  Helpers.check_int "empty" 0 (Arena.Ibuf.length b);
  for i = 0 to 9 do
    Arena.Ibuf.push b (i * i)
  done;
  Helpers.check_int "length" 10 (Arena.Ibuf.length b);
  Helpers.check_int "get" 49 (Arena.Ibuf.get b 7);
  Arena.Ibuf.set b 7 (-1);
  Helpers.check_int "set" (-1) (Arena.Ibuf.get b 7);
  Helpers.check_bool "sub" true (Arena.Ibuf.sub b ~pos:2 ~len:3 = [| 4; 9; 16 |]);
  Arena.Ibuf.clear b;
  Helpers.check_int "cleared" 0 (Arena.Ibuf.length b);
  Arena.Ibuf.push b 5;
  Helpers.check_bool "reused after clear" true (Arena.Ibuf.to_array b = [| 5 |])

let test_fbuf () =
  let b = Arena.Fbuf.create () in
  Arena.Fbuf.push b 1.5;
  Arena.Fbuf.push b 2.5;
  Arena.Fbuf.add b 0 0.25;
  Helpers.check_float "add" 1.75 (Arena.Fbuf.get b 0);
  Helpers.check_float "sum" 4.25 (Arena.Fbuf.sum b)

let test_stamp_set () =
  let s = Arena.Stamp_set.create 4 in
  Helpers.check_bool "fresh empty" false (Arena.Stamp_set.mem s 3);
  Arena.Stamp_set.add s 3;
  Helpers.check_bool "added" true (Arena.Stamp_set.mem s 3);
  Arena.Stamp_set.clear s;
  Helpers.check_bool "cleared is O(1) and empty" false (Arena.Stamp_set.mem s 3);
  Arena.Stamp_set.ensure s 100;
  Arena.Stamp_set.add s 99;
  Helpers.check_bool "grown" true (Arena.Stamp_set.mem s 99)

let test_int_table () =
  let t = Arena.Int_table.create ~capacity:4 () in
  Helpers.check_int "find absent" Arena.Int_table.absent (Arena.Int_table.find t 42);
  (* Push through several growth rounds. *)
  for k = 0 to 999 do
    Arena.Int_table.set t (k * 7) k
  done;
  Helpers.check_int "length" 1000 (Arena.Int_table.length t);
  Helpers.check_int "find" 500 (Arena.Int_table.find t 3500);
  Arena.Int_table.set t 3500 (-5);
  Helpers.check_int "overwrite" (-5) (Arena.Int_table.find t 3500);
  Arena.Int_table.remove t 3500;
  Helpers.check_int "removed" Arena.Int_table.absent (Arena.Int_table.find t 3500);
  Helpers.check_int "length after remove" 999 (Arena.Int_table.length t);
  (* Delete-heavy churn exercises tombstone rehashing. *)
  for k = 0 to 999 do
    Arena.Int_table.remove t (k * 7);
    Arena.Int_table.set t (k * 7 + 1) k
  done;
  Helpers.check_int "churned length" 1000 (Arena.Int_table.length t);
  Helpers.check_int "churned find" 123 (Arena.Int_table.find t (123 * 7 + 1));
  Arena.Int_table.map_values_inplace (fun v -> v * 2) t;
  Helpers.check_int "mapped" 246 (Arena.Int_table.find t (123 * 7 + 1));
  let n = ref 0 in
  Arena.Int_table.iter (fun _ _ -> incr n) t;
  Helpers.check_int "iter visits live entries" 1000 !n;
  Arena.Int_table.reset t;
  Helpers.check_int "reset" 0 (Arena.Int_table.length t)

let test_encode_pair () =
  List.iter
    (fun (t, v) ->
      let k = Arena.encode_pair ~topic:t ~subscriber:v in
      let t', v' = Arena.decode_pair k in
      Helpers.check_int "topic round-trips" t t';
      Helpers.check_int "subscriber round-trips" v v')
    [ (0, 0); (1, 2); (1_000_000, 4_900_000); ((1 lsl 31) - 1, (1 lsl 31) - 1) ]

let test_csr () =
  let counts = [| 2; 0; 3 |] in
  let csr =
    Arena.Csr.build_rows ~rows:3 ~counts ~fill:(fun ~write ->
        write ~row:2 30; write ~row:0 1; write ~row:2 31; write ~row:0 2;
        write ~row:2 32)
  in
  Helpers.check_int "rows" 3 (Arena.Csr.rows csr);
  Helpers.check_int "row 0 length" 2 (Arena.Csr.row_length csr 0);
  Helpers.check_int "row 1 length" 0 (Arena.Csr.row_length csr 1);
  Helpers.check_bool "row 0 in fill order" true (Arena.Csr.row csr 0 = [| 1; 2 |]);
  Helpers.check_bool "row 2 in fill order" true
    (Arena.Csr.row csr 2 = [| 30; 31; 32 |]);
  let seen = ref [] in
  Arena.Csr.iter_row csr 2 (fun x -> seen := x :: !seen);
  Helpers.check_bool "iter_row" true (List.rev !seen = [ 30; 31; 32 ]);
  Helpers.check_bool "of_rows builds the same" true
    (Arena.Csr.of_rows [| [| 1; 2 |]; [||]; [| 30; 31; 32 |] |] = csr);
  (* Underfilling a row is a bug, not a silent empty slot. *)
  match
    Arena.Csr.build_rows ~rows:1 ~counts:[| 2 |] ~fill:(fun ~write ->
        write ~row:0 1)
  with
  | _ -> Alcotest.fail "expected underfill to raise"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "ibuf" `Quick test_ibuf;
    Alcotest.test_case "fbuf" `Quick test_fbuf;
    Alcotest.test_case "stamp set" `Quick test_stamp_set;
    Alcotest.test_case "int table" `Quick test_int_table;
    Alcotest.test_case "encode/decode pair" `Quick test_encode_pair;
    Alcotest.test_case "csr" `Quick test_csr;
  ]
