module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 0) () = { data = Array.make (max capacity 0) 0; len = 0 }
  let length t = t.len

  let check t i =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Arena.Ibuf: index %d out of %d" i t.len)

  let get t i = check t i; t.data.(i)
  let set t i x = check t i; t.data.(i) <- x

  let grow t =
    let cap = Array.length t.data in
    let data = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data

  let push t x =
    if t.len = Array.length t.data then grow t;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let push_of t ~src i = push t (get src i)
  let clear t = t.len <- 0

  let sub t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > t.len then
      invalid_arg "Arena.Ibuf.sub: range out of bounds";
    Array.sub t.data pos len

  let to_array t = Array.sub t.data 0 t.len
end

module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 0) () = { data = Array.make (max capacity 0) 0.; len = 0 }
  let length t = t.len

  let check t i =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Arena.Fbuf: index %d out of %d" i t.len)

  let get t i = check t i; t.data.(i)
  let set t i x = check t i; t.data.(i) <- x
  let add t i x = check t i; t.data.(i) <- t.data.(i) +. x

  let grow t =
    let cap = Array.length t.data in
    let data = Array.make (if cap = 0 then 16 else 2 * cap) 0. in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data

  let push t x =
    if t.len = Array.length t.data then grow t;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let push_of t ~src i = push t (get src i)
  let clear t = t.len <- 0

  let sum t =
    let acc = ref 0. in
    for i = 0 to t.len - 1 do
      acc := !acc +. t.data.(i)
    done;
    !acc

  let to_array t = Array.sub t.data 0 t.len
end

module Stamp_set = struct
  type t = { mutable stamps : int array; mutable gen : int }

  (* gen starts at 1 so a fresh 0-filled slab means "nothing present". *)
  let create n =
    if n < 0 then invalid_arg "Arena.Stamp_set.create: negative universe";
    { stamps = Array.make n 0; gen = 1 }

  let capacity t = Array.length t.stamps

  let ensure t n =
    if n > Array.length t.stamps then begin
      let fresh = Array.make (max n (2 * Array.length t.stamps)) 0 in
      Array.blit t.stamps 0 fresh 0 (Array.length t.stamps);
      t.stamps <- fresh
    end

  let mem t i = t.stamps.(i) = t.gen
  let add t i = t.stamps.(i) <- t.gen
  let clear t = t.gen <- t.gen + 1
end

module Int_table = struct
  (* keys: slot state. empty = min_int, tombstone = min_int + 1, else the
     key itself. vals.(i) is meaningful only for live slots. *)
  let empty_slot = min_int
  let tombstone = min_int + 1
  let absent = -1

  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable live : int;  (* live bindings *)
    mutable used : int;  (* live + tombstones *)
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (2 * p) in
    go 16

  let create ?(capacity = 16) () =
    let cap = next_pow2 (max capacity 16) in
    { keys = Array.make cap empty_slot; vals = Array.make cap 0; live = 0; used = 0 }

  let length t = t.live

  (* Fibonacci hashing spreads sequential keys across the table. *)
  let slot_of t key =
    let mask = Array.length t.keys - 1 in
    (key * 0x2545F4914F6CDD1D) lsr 8 land mask

  let rec probe_find t key i =
    let k = t.keys.(i) in
    if k = key then i
    else if k = empty_slot then -1
    else probe_find t key ((i + 1) land (Array.length t.keys - 1))

  let find t key =
    if key < 0 then absent
    else
      let i = probe_find t key (slot_of t key) in
      if i < 0 then absent else t.vals.(i)

  let mem t key = find t key <> absent

  let rec insert_fresh t key v i =
    let k = t.keys.(i) in
    if k = empty_slot || k = tombstone then begin
      if k = empty_slot then t.used <- t.used + 1;
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.live <- t.live + 1
    end
    else insert_fresh t key v ((i + 1) land (Array.length t.keys - 1))

  let rehash t cap =
    let old_keys = t.keys and old_vals = t.vals in
    t.keys <- Array.make cap empty_slot;
    t.vals <- Array.make cap 0;
    t.live <- 0;
    t.used <- 0;
    Array.iteri
      (fun i k ->
        if k <> empty_slot && k <> tombstone then
          insert_fresh t k old_vals.(i) (slot_of t k))
      old_keys

  let maybe_grow t =
    let cap = Array.length t.keys in
    if 4 * (t.used + 1) > 3 * cap then
      (* Grow only when mostly live; a tombstone-heavy table rehashes in
         place to shed the dead slots. *)
      rehash t (if 2 * t.live >= t.used then 2 * cap else cap)

  let set t key v =
    if key < 0 then invalid_arg "Arena.Int_table.set: negative key";
    if v = absent then invalid_arg "Arena.Int_table.set: reserved value";
    let i = probe_find t key (slot_of t key) in
    if i >= 0 then t.vals.(i) <- v
    else begin
      maybe_grow t;
      insert_fresh t key v (slot_of t key)
    end

  let remove t key =
    if key >= 0 then begin
      let i = probe_find t key (slot_of t key) in
      if i >= 0 then begin
        t.keys.(i) <- tombstone;
        t.live <- t.live - 1
      end
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) empty_slot;
    t.live <- 0;
    t.used <- 0

  let iter f t =
    Array.iteri
      (fun i k -> if k <> empty_slot && k <> tombstone then f k t.vals.(i))
      t.keys

  let map_values_inplace f t =
    Array.iteri
      (fun i k -> if k <> empty_slot && k <> tombstone then t.vals.(i) <- f t.vals.(i))
      t.keys
end

let pair_limit = 1 lsl 31

let encode_pair ~topic ~subscriber =
  if topic < 0 || subscriber < 0 || topic >= pair_limit || subscriber >= pair_limit
  then invalid_arg "Arena.encode_pair: id out of range";
  (topic lsl 31) lor subscriber

let decode_pair key = (key lsr 31, key land (pair_limit - 1))

module Csr = struct
  type t = { offs : int array; data : int array }

  let rows t = Array.length t.offs - 1
  let row_length t i = t.offs.(i + 1) - t.offs.(i)
  let row t i = Array.sub t.data t.offs.(i) (row_length t i)

  let iter_row t i f =
    for j = t.offs.(i) to t.offs.(i + 1) - 1 do
      f t.data.(j)
    done

  let offsets_of_counts counts =
    let n = Array.length counts in
    let offs = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      offs.(i + 1) <- offs.(i) + counts.(i)
    done;
    offs

  let build_rows ~rows ~counts ~fill =
    if Array.length counts <> rows then
      invalid_arg "Arena.Csr.build_rows: counts length mismatch";
    let offs = offsets_of_counts counts in
    let data = Array.make offs.(rows) 0 in
    (* cursor.(r) = next write position for row r. *)
    let cursor = Array.sub offs 0 rows in
    let write ~row x =
      let pos = cursor.(row) in
      if pos >= offs.(row + 1) then
        invalid_arg (Printf.sprintf "Arena.Csr.build_rows: row %d overfilled" row);
      data.(pos) <- x;
      cursor.(row) <- pos + 1
    in
    fill ~write;
    Array.iteri
      (fun r c ->
        if c <> offs.(r + 1) then
          invalid_arg (Printf.sprintf "Arena.Csr.build_rows: row %d underfilled" r))
      cursor;
    { offs; data }

  let of_rows rows =
    let n = Array.length rows in
    let offs = Array.make (n + 1) 0 in
    Array.iteri (fun r row -> offs.(r + 1) <- offs.(r) + Array.length row) rows;
    let data = Array.make offs.(n) 0 in
    Array.iteri (fun r row -> Array.blit row 0 data offs.(r) (Array.length row)) rows;
    { offs; data }
end
