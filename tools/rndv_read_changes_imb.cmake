# --rndv-read must reach the MPI layer: IMB SendRecv over RDMA-read
# rendezvous prints different times from the default RDMA-write
# rendezvous for every size above the eager threshold.
#
# Arguments (via -D):
#   IBPLACE — the ibplace executable

foreach(v 0 1)
  execute_process(
    COMMAND ${IBPLACE} imb sendrecv --iters=2 --rndv-read=${v}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_${v})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ibplace imb sendrecv --rndv-read=${v} exited with ${rc}")
  endif()
endforeach()

if(out_0 STREQUAL out_1)
  message(FATAL_ERROR
          "ibplace imb sendrecv prints the same table with --rndv-read=0 "
          "and --rndv-read=1: the flag does not reach the rendezvous "
          "protocol")
endif()
