(* Merged storage of dependences.

   The paper merges identical dependences to cut output size by ~1e5
   (Sec. III-B); a map keyed by the full dependence does exactly that,
   keeping an occurrence count per unique dependence (the count feeds the
   communication-intensity matrix of Sec. VII-B).

   The map is an open-addressing table over one int array, three lanes
   per entry:

     sink; src; count * 16 + tag      where tag = kind*2 + race + 1

   so a third lane of 0 marks an empty entry.  Probing is linear from a
   multiplicative mix of sink, src and tag, at a load of at most 3/4.
   Every access that builds a dependence lands here, and merging means
   almost all of them hit an existing entry (merge factors ~1e4), so a
   hit only compares ints and bumps a lane: no key record, no C hash or
   compare, no allocation.  Programs whose thread ids make most
   dependences distinct (the task family: ~4e4 entries) pay 24 bytes per
   entry plus slack, no more than the boxed keys of a polymorphic table.

   One store is single-owner: the serial profiler has one, each parallel
   worker has its own thread-local store, and [merge_into] combines them
   at the end (paper Sec. IV: "at the end, we merge the data from all
   local maps into a global map"). *)

type t = {
  mutable lanes : int array;
  mutable bits : int;  (* capacity = 1 lsl bits entries *)
  mutable distinct : int;
  mutable total : int;  (* occurrences including duplicates, for the merge-factor stat *)
  account : (Ddp_util.Mem_account.t * string) option;
}

let stride = 3
let initial_bits = 6
let bytes_of bits = (1 lsl bits) * stride * 8

let charge t n =
  match t.account with
  | Some (acct, cat) -> Ddp_util.Mem_account.add acct cat n
  | None -> ()

let create ?account () =
  let t =
    {
      lanes = Array.make ((1 lsl initial_bits) * stride) 0;
      bits = initial_bits;
      distinct = 0;
      total = 0;
      account;
    }
  in
  charge t (bytes_of initial_bits);
  t

let tag ~(kind : Dep.kind) ~race =
  ((match kind with RAW -> 0 | WAR -> 2 | WAW -> 4 | INIT -> 6) lor Bool.to_int race) + 1

let key_of lanes b =
  let code = (lanes.(b + 2) land 15) - 1 in
  {
    Dep.kind = (match code lsr 1 with 0 -> RAW | 1 -> WAR | 2 -> WAW | _ -> INIT);
    sink = lanes.(b);
    src = lanes.(b + 1);
    race = code land 1 = 1;
  }

(* Offset of the entry holding the key, or of the empty entry ending its
   probe run. *)
let find lanes bits ~sink ~src ~tag =
  let mask = (1 lsl bits) - 1 in
  let h = (sink * 0x2545F4914F6CDD1D) lxor (src * 0x1B873593) lxor tag in
  let i = ref ((h * 0x2545F4914F6CDD1D) lsr (63 - bits)) in
  while
    let b = !i * stride in
    let g = lanes.(b + 2) in
    g <> 0 && not (g land 15 = tag && lanes.(b) = sink && lanes.(b + 1) = src)
  do
    i := (!i + 1) land mask
  done;
  !i * stride

let grow t =
  let old = t.lanes and old_bits = t.bits in
  t.bits <- old_bits + 1;
  t.lanes <- Array.make ((1 lsl t.bits) * stride) 0;
  for i = 0 to (1 lsl old_bits) - 1 do
    let b = i * stride in
    let g = old.(b + 2) in
    if g <> 0 then begin
      let d = find t.lanes t.bits ~sink:old.(b) ~src:old.(b + 1) ~tag:(g land 15) in
      for k = 0 to stride - 1 do
        t.lanes.(d + k) <- old.(b + k)
      done
    end
  done;
  charge t (bytes_of t.bits - bytes_of old_bits)

let rec bump t ~sink ~src ~tag n =
  let l = t.lanes in
  let b = find l t.bits ~sink ~src ~tag in
  if l.(b + 2) <> 0 then l.(b + 2) <- l.(b + 2) + (n lsl 4)
  else if 4 * (t.distinct + 1) > 3 lsl t.bits then begin
    grow t;
    bump t ~sink ~src ~tag n
  end
  else begin
    l.(b) <- sink;
    l.(b + 1) <- src;
    l.(b + 2) <- (n lsl 4) lor tag;
    t.distinct <- t.distinct + 1
  end

let count_in t ~sink ~src ~tag n =
  t.total <- t.total + n;
  bump t ~sink ~src ~tag n

let add t ~kind ~sink ~src ~race = count_in t ~sink ~src ~tag:(tag ~kind ~race) 1
let add_init t ~sink = count_in t ~sink ~src:0 ~tag:(tag ~kind:Dep.INIT ~race:false) 1

let add_key t (key : Dep.t) ~occurrences =
  count_in t ~sink:key.sink ~src:key.src ~tag:(tag ~kind:key.kind ~race:key.race) occurrences

let lookup t (key : Dep.t) =
  find t.lanes t.bits ~sink:key.sink ~src:key.src ~tag:(tag ~kind:key.kind ~race:key.race)

let mem t key = t.lanes.(lookup t key + 2) <> 0
let count t key = t.lanes.(lookup t key + 2) lsr 4
let distinct t = t.distinct
let total_occurrences t = t.total

(* Output-size reduction achieved by merging: the paper reports an average
   factor of ~1e5 for NAS. *)
let merge_factor t =
  if t.distinct = 0 then 1.0 else float_of_int t.total /. float_of_int t.distinct

let fold t f init =
  let l = t.lanes in
  let acc = ref init in
  for i = 0 to (1 lsl t.bits) - 1 do
    let b = i * stride in
    if l.(b + 2) <> 0 then acc := f (key_of l b) (l.(b + 2) lsr 4) !acc
  done;
  !acc

let iter t f = fold t (fun k c () -> f k c) ()
let to_list t = fold t (fun k c acc -> (k, c) :: acc) []

let merge_into ~src ~dst =
  let l = src.lanes in
  for i = 0 to (1 lsl src.bits) - 1 do
    let b = i * stride in
    let g = l.(b + 2) in
    if g <> 0 then count_in dst ~sink:l.(b) ~src:l.(b + 1) ~tag:(g land 15) (g lsr 4)
  done

(* Set of unique dependence keys, for accuracy comparisons. *)
module Key_set = Set.Make (Dep)

let key_set t = fold t (fun k _ acc -> Key_set.add k acc) Key_set.empty

(* Ignore race flags (and counts): used when comparing dependence sets
   across profiling modes that differ only in race detection. *)
let key_set_no_race t =
  fold t (fun k _ acc -> Key_set.add { k with Dep.race = false } acc) Key_set.empty

let approx_bytes t = bytes_of t.bits
