open Bionav_util

type config = { retry : Retry.config; breaker : Breaker.config option }

let default_config = { retry = Retry.default_config; breaker = Some Breaker.default_config }

type error = Circuit_open | Gave_up of string

let error_message = function
  | Circuit_open -> "backend unavailable (circuit open)"
  | Gave_up msg -> Printf.sprintf "backend unavailable (%s)" msg

type t = {
  clock : Clock.t;
  config : config;
  chaos : Chaos.t option;
  breaker : Breaker.t option;
  rng : Rng.t;  (* backoff jitter *)
  lock : Mutex.t;  (* serializes calls: breaker, fault plan and rng are shared state *)
}

let create ?chaos ?(config = default_config) ?(seed = 0) ~clock () =
  {
    clock;
    config;
    chaos;
    breaker = Option.map (fun bc -> Breaker.create ~config:bc ~clock ()) config.breaker;
    rng = Rng.create seed;
    lock = Mutex.create ();
  }

let breaker t = t.breaker
let chaos t = t.chaos

(* One attempt: fault plan first, then the real thunk, exceptions caught. *)
let attempt t ~op f () =
  match
    (match t.chaos with
    | None -> Chaos.Pass
    | Some plan -> Chaos.draw plan ~op)
  with
  | Chaos.Fail -> Error (Chaos.Injected op)
  | (Chaos.Pass | Chaos.Delay _) as verdict -> (
      (match verdict with
      | Chaos.Delay ms -> Clock.sleep_ms t.clock ms
      | Chaos.Pass | Chaos.Fail -> ());
      match f () with v -> Ok v | exception e -> Error e)

let call t ~op f =
  Mutex.protect t.lock @@ fun () ->
  match t.breaker with
  | Some b when not (Breaker.allow b) -> Error Circuit_open
  | _ -> (
      let observed g () =
        let r = g () in
        (match (t.breaker, r) with
        | Some b, Ok _ -> Breaker.record_success b
        | Some b, Error _ -> Breaker.record_failure b
        | None, _ -> ());
        r
      in
      match Retry.run t.config.retry ~clock:t.clock ~rng:t.rng (observed (attempt t ~op f)) with
      | Ok v -> Ok v
      | Error e ->
          Logs.debug (fun m -> m "guard: %s failed: %s" op (Printexc.to_string e));
          Error (Gave_up (Printexc.to_string e)))

let inject t ~op =
  match t.chaos with
  | None -> ()
  | Some plan -> (
      Mutex.protect t.lock @@ fun () ->
      match Chaos.draw plan ~op with
      | Chaos.Delay ms -> Clock.sleep_ms t.clock ms
      | Chaos.Pass | Chaos.Fail -> ())
