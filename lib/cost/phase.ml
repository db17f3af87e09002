type t =
  | Entry_copyin
  | Proto_output
  | Ip_output
  | Ether_output
  | Device_intr
  | Netisr_filter
  | Kernel_copyout
  | Mbuf_queue
  | Ip_intr
  | Proto_input
  | Wakeup
  | Copyout_exit
  | Wire
  | Control
  | Desc_crossing

let all =
  [
    Entry_copyin;
    Proto_output;
    Ip_output;
    Ether_output;
    Device_intr;
    Netisr_filter;
    Kernel_copyout;
    Mbuf_queue;
    Ip_intr;
    Proto_input;
    Wakeup;
    Copyout_exit;
    Wire;
    Control;
    Desc_crossing;
  ]

let label = function
  | Entry_copyin -> "entry/copyin"
  | Proto_output -> "tcp,udp_output"
  | Ip_output -> "ip_output"
  | Ether_output -> "ether_output"
  | Device_intr -> "device intr/read"
  | Netisr_filter -> "netisr/packet filter"
  | Kernel_copyout -> "kernel copyout"
  | Mbuf_queue -> "mbuf/queue"
  | Ip_intr -> "ipintr"
  | Proto_input -> "tcp,udp_input"
  | Wakeup -> "wakeup user thread"
  | Copyout_exit -> "copyout/exit"
  | Wire -> "network transit"
  | Control -> "control/session ops"
  | Desc_crossing -> "descriptor crossing"
