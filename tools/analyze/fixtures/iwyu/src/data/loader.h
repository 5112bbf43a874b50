#pragma once
namespace fixture::data {

int LoadRows();

}  // namespace fixture::data
