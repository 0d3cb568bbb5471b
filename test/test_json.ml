(* The shared JSON codec (lib/json): printing then parsing is the
   identity on values, in both layouts, for strings with quotes, control
   bytes and non-ASCII text, for non-finite floats (printed as null) and
   for floats exact at the printer's %.12g. *)

module Json = Mcss_json

let gen_string =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "/"; "\x7f"; "é"; "ü"; "€"; "😀" ];
        map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f);
        string_size ~gen:printable (int_range 0 5);
      ]
  in
  map (String.concat "") (list_size (int_range 0 5) piece)

let gen_float =
  let open QCheck.Gen in
  oneof
    [
      (* Exact at %.12g by construction. *)
      map (fun x -> float_of_string (Printf.sprintf "%.12g" x)) float;
      map (fun i -> float_of_int i /. 1000.) (int_range (-1_000_000) 1_000_000);
      oneofl [ nan; infinity; neg_infinity; 0.; -0.; 1e300; -1e-300; 5e-324 ];
    ]

let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun x -> Json.Float x) gen_float;
               map (fun s -> Json.String s) gen_string;
             ]
         in
         if n <= 0 then leaf
         else
           let child = self (n / 4) in
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) child));
               ( 1,
                 map
                   (fun fs -> Json.Obj fs)
                   (list_size (int_range 0 4) (pair gen_string child)) );
             ])

let arbitrary = QCheck.make ~print:Json.to_string gen_json

(* What a printed value reads back as: non-finite floats are null, and a
   float's text may read back as an [Int] (e.g. [3.] prints as [3]), so
   numbers compare by value. *)
let rec equiv expected actual =
  match (expected, actual) with
  | Json.Int i, Json.Int j -> i = j
  | Json.Float x, Json.Null -> not (Float.is_finite x)
  | Json.Float x, Json.Int j -> x = float_of_int j
  | Json.Float x, Json.Float y -> x = y
  | Json.List xs, Json.List ys -> List.equal equiv xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, x) (k', y) -> String.equal k k' && equiv x y) xs ys
  | a, b -> a = b

let parse_ok s =
  match Json.parse s with Ok v -> v | Error m -> QCheck.Test.fail_reportf "%s in %S" m s

let prop_round_trip =
  Helpers.qtest ~count:500 "parse inverts to_string and to_string_pretty" arbitrary
    (fun v ->
      let compact = parse_ok (Json.to_string v) in
      let pretty = parse_ok (Json.to_string_pretty v) in
      compact = pretty && equiv v compact)

let test_pretty_layout () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Float 0.5; Json.Null ]);
        ("c", Json.Obj []);
        ("d", Json.List []);
      ]
  in
  Alcotest.(check string) "compact" {|{"a":1,"b":[0.5,null],"c":{},"d":[]}|} (Json.to_string v);
  Alcotest.(check string) "pretty"
    "{\n  \"a\": 1,\n  \"b\": [\n    0.5,\n    null\n  ],\n  \"c\": {},\n  \"d\": []\n}"
    (Json.to_string_pretty v)

let suite =
  [ prop_round_trip; Alcotest.test_case "pretty layout" `Quick test_pretty_layout ]
