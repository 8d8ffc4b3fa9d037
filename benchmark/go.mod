module hzccl/benchmark

go 1.24

require hzccl v0.0.0

replace hzccl => ../
