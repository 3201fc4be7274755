module B = Repro_dex.Bytecode

type model = {
  int_alu : int;
  int_mul : int;
  int_div : int;
  float_alu : int;
  float_mul : int;
  float_div : int;
  float_conv : int;
  move : int;
  const : int;
  load : int;
  store : int;
  branch : int;
  branch_miss : int;
  null_check : int;
  bounds_check : int;
  safepoint : int;
  alloc_base : int;
  alloc_per_word : int;
  call_overhead : int;
  virtual_extra : int;
  intrinsic_call : int;
  jni_call : int;
  throw_cost : int;
  interp_dispatch : int;
  gc_pause_base : int;
  gc_words_divisor : int;
  gc_threshold_words : int;
  cycles_per_ms : int;
}

let default = {
  int_alu = 1;
  int_mul = 3;
  int_div = 12;
  float_alu = 3;
  float_mul = 4;
  float_div = 15;
  float_conv = 3;
  move = 1;
  const = 1;
  load = 4;
  store = 3;
  branch = 1;
  branch_miss = 14;
  null_check = 1;
  bounds_check = 2;
  safepoint = 14;
  alloc_base = 40;
  alloc_per_word = 1;
  call_overhead = 18;
  virtual_extra = 14;
  intrinsic_call = 3;
  jni_call = 90;
  throw_cost = 250;
  interp_dispatch = 14;
  gc_pause_base = 3000;
  gc_words_divisor = 4;
  gc_threshold_words = 48 * 1024;
  cycles_per_ms = 200_000;
}

let native_work = function
  | B.Nsqrt -> 18
  | B.Nsin | B.Ncos -> 40
  | B.Nexp | B.Nlog -> 35
  | B.Npow -> 55
  | B.Nfloor -> 4
  | B.Nabs_f | B.Nabs_i -> 2
  | B.Nmin_i | B.Nmax_i | B.Nmin_f | B.Nmax_f -> 2
  | B.Nprint_i | B.Nprint_f -> 400
  | B.Ndraw -> 900
  | B.Nrand -> 25
  | B.Nclock -> 30
